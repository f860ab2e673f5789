(* Deterministic interleaving harness over the parallel read path.

   Free-running domains (test_parallel_stress) can hit a racy interleaving
   but cannot replay it.  These tests drive reader and maintainer tasks
   through {!Vnl_util.Sched}: every page access and version-state access
   is a scheduling point, a seeded PRNG picks who advances, and the same
   seed always reproduces the same interleaving.  At each step readers
   check their whole view against the full-history {!Oracle} at their
   sessionVN — the paper's consistency guarantee (§3), stated exactly. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Executor = Vnl_query.Executor
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Disk = Vnl_storage.Disk
module Buffer_pool = Vnl_storage.Buffer_pool
module Heap_file = Vnl_storage.Heap_file
module Page = Vnl_storage.Page
module Twovnl = Vnl_core.Twovnl
module Batch = Vnl_core.Batch
module Sched = Vnl_util.Sched
module Xorshift = Vnl_util.Xorshift
module Domain_pool = Vnl_util.Domain_pool

let check = Alcotest.check

let table_name = "DailySales"

(* --- the scheduler itself ------------------------------------------- *)

let test_sched_runs_all_steps () =
  let log = ref [] in
  let task name =
    ( name,
      fun () ->
        for i = 1 to 3 do
          log := (name, i) :: !log;
          Sched.yield ()
        done )
  in
  let trace = Sched.run ~seed:1 [ task "a"; task "b" ] in
  check Alcotest.int "every step of every task ran" 6 (List.length !log);
  List.iter
    (fun name ->
      check (Alcotest.list Alcotest.int)
        (name ^ " stepped in order")
        [ 1; 2; 3 ]
        (List.rev_map snd (List.filter (fun (n, _) -> n = name) !log)))
    [ "a"; "b" ];
  (* The trace is the schedule: replaying the seed replays it exactly. *)
  let log2 = ref [] in
  let task2 name = (name, fun () -> for i = 1 to 3 do log2 := (name, i) :: !log2; Sched.yield () done) in
  let trace2 = Sched.run ~seed:1 [ task2 "a"; task2 "b" ] in
  check (Alcotest.list Alcotest.string) "same seed, same trace" trace trace2;
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "same seed, same step log" !log !log2

let test_sched_seed_changes_schedule () =
  let run seed =
    let log = ref [] in
    let task name =
      (name, fun () -> for _ = 1 to 5 do log := name :: !log; Sched.yield () done)
    in
    ignore (Sched.run ~seed [ task "a"; task "b"; task "c" ]);
    List.rev !log
  in
  Alcotest.(check bool) "different seeds interleave differently" false (run 1 = run 2)

let test_sched_reentrant_rejected () =
  Alcotest.check_raises "re-entrant run is refused"
    (Invalid_argument "Sched.run: a schedule is already being driven")
    (fun () ->
      ignore
        (Sched.run ~seed:1 [ ("outer", fun () -> ignore (Sched.run ~seed:2 [])) ]))

let test_sched_exception_runs_cleanups () =
  let cleaned = ref false in
  (try
     ignore
       (Sched.run ~seed:3
          [
            ( "holder",
              fun () ->
                Fun.protect
                  ~finally:(fun () -> cleaned := true)
                  (fun () ->
                    Sched.yield ();
                    Sched.yield ()) );
            ("bomb", fun () -> Sched.yield (); failwith "boom");
          ]);
     Alcotest.fail "exception did not propagate"
   with Failure msg -> check Alcotest.string "task failure propagates" "boom" msg);
  Alcotest.(check bool) "suspended task's cleanup ran" true !cleaned

(* --- the 2VNL warehouse under scheduled interleavings ----------------- *)

let groups =
  [
    ("San Jose", "CA", "golf equip");
    ("Berkeley", "CA", "racquetball");
    ("Novato", "CA", "rollerblades");
    ("Fresno", "CA", "tennis");
    ("Reno", "NV", "golf equip");
    ("Tahoe", "NV", "skiing");
  ]

let key_of (city, state, pl) ~day =
  [ Value.Str city; Value.Str state; Value.Str pl; Value.date_of_mdy 10 day 96 ]

let row_of key sales = Tuple.make Fixtures.daily_sales (key @ [ Value.Int sales ])

let initial_rows () =
  List.concat_map
    (fun g -> List.map (fun day -> row_of (key_of g ~day) 1000) [ 13; 14 ])
    groups

(* Randomized batches with disjoint per-key roles (every key appears in at
   most one op per batch), tracked against a live-key set so the same ops
   are always legal for both the warehouse and the oracle. *)
let gen_batches rng ~batches =
  let live = ref (List.concat_map (fun g -> [ key_of g ~day:13; key_of g ~day:14 ]) groups) in
  let fresh_day = ref 20 in
  List.init batches (fun _ ->
      let pool = Array.of_list !live in
      Xorshift.shuffle rng pool;
      let n_upd = min (Array.length pool) (1 + Xorshift.int rng 3) in
      let n_del = min (Array.length pool - n_upd) (Xorshift.int rng 2) in
      let ops = ref [] in
      for i = 0 to n_upd - 1 do
        ops := Batch.Update (pool.(i), [ (4, Value.Int (Xorshift.int rng 50_000)) ]) :: !ops
      done;
      for i = n_upd to n_upd + n_del - 1 do
        ops := Batch.Delete pool.(i) :: !ops;
        live := List.filter (fun k -> k <> pool.(i)) !live
      done;
      let day = !fresh_day in
      incr fresh_day;
      List.iter
        (fun g ->
          if Xorshift.chance rng 0.4 then begin
            let key = key_of g ~day in
            ops := Batch.Insert (row_of key (Xorshift.int rng 9_000)) :: !ops;
            live := key :: !live
          end)
        groups;
      List.rev !ops)

let oracle_op = function
  | Batch.Insert t -> Oracle.Ins t
  | Batch.Update (k, a) -> Oracle.Upd (k, a)
  | Batch.Delete k -> Oracle.Del k

let build () =
  let db = Database.create ~pool_capacity:4 () in
  let vnl = Twovnl.init db in
  ignore (Twovnl.register_table vnl ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial vnl table_name (initial_rows ());
  let oracle = Oracle.create Fixtures.daily_sales in
  Oracle.apply_txn oracle ~vn:1 (List.map (fun t -> Oracle.Ins t) (initial_rows ()));
  (db, vnl, oracle)

let sum_rows rows =
  List.fold_left
    (fun acc t -> match Tuple.get t 4 with Value.Int n -> acc + n | _ -> acc)
    0 rows

(* One reader pass: full-view engine read and compiled-SQL aggregate, both
   checked against the oracle at this session's version.  Expiry is the
   legal out (§2.1); any other divergence is a failure. *)
let reader_pass vnl oracle ~reads =
  let s = Twovnl.Session.begin_ vnl in
  (try
     for _ = 1 to reads do
       let rows = Twovnl.Session.read_table vnl s table_name in
       let expected = Oracle.visible oracle ~vn:(Twovnl.Session.vn s) in
       if not (Oracle.equal_views rows expected) then
         Alcotest.failf "session at vn %d saw %d rows, oracle has %d"
           (Twovnl.Session.vn s) (List.length rows) (List.length expected);
       let r =
         Twovnl.Session.query vnl s
           (Printf.sprintf "SELECT SUM(total_sales) FROM %s" table_name)
       in
       match r.Executor.rows with
       | [ [ Value.Int total ] ] ->
         if total <> sum_rows expected then
           Alcotest.failf "SQL sum %d disagrees with oracle sum %d at vn %d" total
             (sum_rows expected) (Twovnl.Session.vn s)
       | [ [ Value.Null ] ] ->
         if expected <> [] then
           Alcotest.failf "SQL sum NULL but oracle has %d rows at vn %d"
             (List.length expected) (Twovnl.Session.vn s)
       | _ -> Alcotest.fail "sum query shape"
     done
   with Twovnl.Expired _ -> ());
  Twovnl.Session.end_ vnl s

(* The harness proper: one maintainer applying [batches] transactions, two
   readers re-checking the oracle, all interleaved by [sched_seed]. *)
let scheduled_run ~data_seed ~sched_seed ~batches =
  let db, vnl, oracle = build () in
  let plans = gen_batches (Xorshift.create data_seed) ~batches in
  let maintainer () =
    List.iter
      (fun ops ->
        let m = Twovnl.Txn.begin_ vnl in
        (* Recorded at begin: no reader can hold this vn before commit
           publishes it, and earlier versions are immutable history. *)
        Oracle.apply_txn oracle ~vn:(Twovnl.Txn.vn m) (List.map oracle_op ops);
        ignore (Twovnl.Txn.apply_batch m ~table:table_name ops);
        Twovnl.Txn.commit m)
      plans
  in
  let reader name = (name, fun () -> for _ = 1 to 4 do reader_pass vnl oracle ~reads:2 done) in
  let trace =
    Sched.run ~seed:sched_seed
      [ ("maintainer", maintainer); reader "reader-1"; reader "reader-2" ]
  in
  (trace, db)

let test_oracle_many_interleavings () =
  for sched_seed = 1 to 12 do
    ignore (scheduled_run ~data_seed:42 ~sched_seed ~batches:4)
  done

let test_oracle_many_workloads () =
  List.iter
    (fun data_seed -> ignore (scheduled_run ~data_seed ~sched_seed:7 ~batches:5))
    [ 3; 17; 99; 1234 ]

let test_interleaving_deterministic () =
  let t1, _ = scheduled_run ~data_seed:42 ~sched_seed:5 ~batches:4 in
  let t2, _ = scheduled_run ~data_seed:42 ~sched_seed:5 ~batches:4 in
  check (Alcotest.list Alcotest.string) "same seed, same schedule" t1 t2;
  Alcotest.(check bool) "the schedule interleaves maintainer and readers" true
    (List.exists (( = ) "maintainer") t1 && List.exists (( = ) "reader-1") t1);
  let t3, _ = scheduled_run ~data_seed:42 ~sched_seed:6 ~batches:4 in
  Alcotest.(check bool) "another seed schedules differently" false (t1 = t3)

(* --- the optimistic read path under forced interleavings --------------- *)

(* Pool-level seqlock check: a reader decoding two mirrored counters races
   a mutator updating both.  The scheduler can (and, across seeds, does)
   run the mutator between the reader's stamp snapshot and its validate,
   which must discard the attempt — a validated read never returns a torn
   pair, and enough seeds force both the retry and the exhausted-budget
   latched fallback. *)
let test_forced_read_validate_retry () =
  let retries = ref 0 and fallbacks = ref 0 and opt = ref 0 in
  for seed = 1 to 40 do
    let pool = Buffer_pool.create ~capacity:4 (Disk.create ()) in
    let pid = Buffer_pool.alloc_page pool in
    Buffer_pool.with_page_mut pool pid (fun img ->
        Bytes.set_int64_be img 0 0L;
        Bytes.set_int64_be img 8 0L);
    let observed = ref [] in
    ignore
      (Sched.run ~seed
         [
           ( "reader",
             fun () ->
               for _ = 1 to 8 do
                 let pair =
                   Buffer_pool.read_page pool pid (fun img ->
                       (Bytes.get_int64_be img 0, Bytes.get_int64_be img 8))
                 in
                 observed := pair :: !observed;
                 Sched.yield ()
               done );
           ( "mutator",
             fun () ->
               for i = 1 to 8 do
                 Buffer_pool.with_page_mut pool pid (fun img ->
                     Bytes.set_int64_be img 0 (Int64.of_int i);
                     Bytes.set_int64_be img 8 (Int64.of_int i));
                 Sched.yield ()
               done );
         ]);
    List.iter
      (fun (a, b) ->
        if a <> b then
          Alcotest.failf "seed %d: torn read (%Ld, %Ld) survived validation" seed a b)
      !observed;
    (* Within one reader the observed values are monotone: each validated
       (or latched) read is a consistent snapshot of a single writer. *)
    ignore
      (List.fold_left
         (fun later (a, _) ->
           if a > later then
             Alcotest.failf "seed %d: reads went backwards (%Ld after %Ld)" seed a later;
           a)
         Int64.max_int !observed);
    let s = Buffer_pool.stats pool in
    retries := !retries + s.opt_retries;
    fallbacks := !fallbacks + s.opt_fallbacks;
    opt := !opt + s.opt_reads
  done;
  Alcotest.(check bool) "optimistic reads validated across the sweep" true (!opt > 0);
  Alcotest.(check bool) "some schedule forced a stamp-change retry" true (!retries > 0);
  Alcotest.(check bool) "some schedule exhausted the retry budget into the latched path"
    true (!fallbacks > 0)

(* The same guarantee end-to-end: under the scheduled warehouse runs the
   readers go through the optimistic path (the oracle equality inside
   [reader_pass] is the correctness check); across the interleaving sweep
   the conflict path must actually fire. *)
let test_warehouse_optimistic_path_exercised () =
  let opt = ref 0 and retries = ref 0 in
  for sched_seed = 1 to 12 do
    let _, db = scheduled_run ~data_seed:42 ~sched_seed ~batches:4 in
    let s = Buffer_pool.stats (Database.pool db) in
    opt := !opt + s.opt_reads;
    retries := !retries + s.opt_retries
  done;
  Alcotest.(check bool) "warehouse reads are served latch-free" true (!opt > 0);
  Alcotest.(check bool) "maintenance forced read-validate-retry at least once" true
    (!retries > 0)

(* Starvation: a reader racing a continuously-mutating writer on real
   domains must complete every query — via validated optimistic reads when
   the stamp holds, via the latched fallback when it never does — and no
   completed read may be torn. *)
let test_reader_progress_under_continuous_mutation () =
  let pool = Buffer_pool.create ~capacity:8 (Disk.create ()) in
  let pid = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool pid (fun img ->
      Bytes.set_int64_be img 0 0L;
      Bytes.set_int64_be img 8 0L);
  let stop = Atomic.make false in
  let queries = 2_000 in
  let torn =
    Domain_pool.run ~domains:2 (fun ~start rank ->
        start ();
        if rank = 0 then begin
          let i = ref 0L in
          while not (Atomic.get stop) do
            i := Int64.add !i 1L;
            Buffer_pool.with_page_mut pool pid (fun img ->
                Bytes.set_int64_be img 0 !i;
                Bytes.set_int64_be img 8 !i)
          done;
          0
        end
        else begin
          let torn = ref 0 in
          for _ = 1 to queries do
            let a, b =
              Buffer_pool.read_page pool pid (fun img ->
                  (Bytes.get_int64_be img 0, Bytes.get_int64_be img 8))
            in
            if a <> b then incr torn
          done;
          Atomic.set stop true;
          !torn
        end)
  in
  check Alcotest.int "no torn read completed" 0 torn.(1);
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "every query completed (progress under mutation)" true
    (s.opt_reads + s.opt_fallbacks >= queries)

(* The fallback is also the not-resident path, which we can hit
   deterministically: evict the page, and [read_page] must detour through
   the latched reload and still return current bytes. *)
let test_fallback_on_nonresident_page () =
  let pool = Buffer_pool.create ~capacity:2 (Disk.create ()) in
  let target = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool target (fun img -> Bytes.set_int64_be img 0 77L);
  check Alcotest.int "resident read is optimistic" 77
    (Int64.to_int (Buffer_pool.read_page pool target (fun img -> Bytes.get_int64_be img 0)));
  let before = Buffer_pool.stats pool in
  check Alcotest.int "no fallback yet" 0 before.opt_fallbacks;
  (* Two fresh pages through a 2-frame pool evict [target]. *)
  let p1 = Buffer_pool.alloc_page pool in
  let p2 = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool p1 (fun img -> Bytes.set_int64_be img 0 1L);
  Buffer_pool.with_page_mut pool p2 (fun img -> Bytes.set_int64_be img 0 2L);
  check Alcotest.int "evicted page reads correctly through the fallback" 77
    (Int64.to_int (Buffer_pool.read_page pool target (fun img -> Bytes.get_int64_be img 0)));
  let after = Buffer_pool.stats pool in
  Alcotest.(check bool) "the not-resident fallback fired" true (after.opt_fallbacks > 0);
  (* Reloaded by the fallback, the page is resident again: optimistic. *)
  ignore (Buffer_pool.read_page pool target (fun img -> Bytes.get_int64_be img 0));
  let final = Buffer_pool.stats pool in
  Alcotest.(check bool) "subsequent reads are optimistic again" true
    (final.opt_reads > after.opt_reads)

(* Evicted buffers are recycled at once, so a stale optimistic reader can
   find a foreign page under its bytes.  Here the reader's own callback
   causes that on its first attempt: it reads enough pages of a table with
   a different record layout to evict its page, whose buffer the next miss
   refills with one of those foreign pages, and then decodes [img] with
   its own layout.  The dead stamp must reject that attempt, and the
   retry must return the original page's value. *)
let test_recycled_buffer_foreign_page () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~capacity:2 disk in
  let narrow = Schema.make [ Schema.attr ~key:true "v" Dtype.Int ] in
  let wide =
    Schema.make [ Schema.attr ~key:true "name" (Dtype.Str 40); Schema.attr "w" Dtype.Int ]
  in
  let target = Heap_file.create pool narrow in
  let rid = Heap_file.insert target (Tuple.make narrow [ Value.Int 77 ]) in
  let foreign = Heap_file.create pool wide in
  for i = 1 to 3 * Heap_file.tuples_per_page foreign do
    ignore (Heap_file.insert foreign (Tuple.make wide [ Value.Str "foreign"; Value.Int i ]))
  done;
  let foreign_pages = Heap_file.pages foreign in
  Buffer_pool.flush_all pool;
  check Alcotest.int "the target row reads back" 77
    (match Heap_file.get target rid with
    | Some t -> ( match Tuple.get t 0 with Value.Int v -> v | _ -> -1)
    | None -> -1);
  let layout =
    Page.layout ~page_size:(Disk.page_size disk) ~record_width:(Heap_file.record_width target)
  in
  let decode img =
    if Page.slot_used layout img rid.Heap_file.slot then
      match Tuple.get (Tuple.decode_from narrow img (Page.record_offset layout rid.slot)) 0 with
      | Value.Int v -> Some v
      | _ -> None
    else None
  in
  let before = Buffer_pool.stats pool in
  let attempts = ref 0 and recycled = ref false and first = ref None in
  let got =
    Buffer_pool.read_page pool rid.page (fun img ->
        incr attempts;
        if !attempts = 1 then begin
          List.iter
            (fun pid -> ignore (Buffer_pool.with_page pool pid (fun _ -> ())))
            foreign_pages;
          recycled :=
            List.exists (fun pid -> Bytes.equal img (Disk.read disk pid)) foreign_pages;
          let v = try decode img with _ -> None in
          first := Some v;
          v
        end
        else decode img)
  in
  Alcotest.(check bool) "the evicted buffer now holds a foreign page" true !recycled;
  Alcotest.(check bool) "the first attempt decoded foreign bytes" true
    (!first <> None && !first <> Some (Some 77));
  check (Alcotest.option Alcotest.int) "the call returns the original page's value" (Some 77)
    got;
  let after = Buffer_pool.stats pool in
  check Alcotest.int "the failed attempt counts one retry" 1
    (after.opt_retries - before.opt_retries);
  check Alcotest.int "the retry took the latched fallback" 1
    (after.opt_fallbacks - before.opt_fallbacks)

(* Single-task scheduling is the serial path: same answers, and the saved
   database image is byte-identical to a run without the harness. *)
let test_serial_byte_identity () =
  let workload () =
    let db, vnl, oracle = build () in
    List.iter
      (fun ops ->
        let m = Twovnl.Txn.begin_ vnl in
        Oracle.apply_txn oracle ~vn:(Twovnl.Txn.vn m) (List.map oracle_op ops);
        ignore (Twovnl.Txn.apply_batch m ~table:table_name ops);
        Twovnl.Txn.commit m)
      (gen_batches (Xorshift.create 42) ~batches:3);
    reader_pass vnl oracle ~reads:1;
    Database.save db;
    Database.disk db
  in
  let plain = workload () in
  let scheduled = ref None in
  ignore (Sched.run ~seed:11 [ ("all", fun () -> scheduled := Some (workload ())) ]);
  let scheduled = Option.get !scheduled in
  check Alcotest.int "same page count" (Disk.page_count plain) (Disk.page_count scheduled);
  for pid = 0 to Disk.page_count plain - 1 do
    if not (Bytes.equal (Disk.read plain pid) (Disk.read scheduled pid)) then
      Alcotest.failf "page %d differs between plain and scheduled runs" pid
  done

let suite =
  [
    Alcotest.test_case "sched: runs every step of every task" `Quick test_sched_runs_all_steps;
    Alcotest.test_case "sched: seed changes the schedule" `Quick test_sched_seed_changes_schedule;
    Alcotest.test_case "sched: re-entrant run rejected" `Quick test_sched_reentrant_rejected;
    Alcotest.test_case "sched: exception discontinues and cleans up" `Quick
      test_sched_exception_runs_cleanups;
    Alcotest.test_case "oracle holds across 12 interleavings" `Quick
      test_oracle_many_interleavings;
    Alcotest.test_case "oracle holds across randomized workloads" `Quick
      test_oracle_many_workloads;
    Alcotest.test_case "same seed reproduces the interleaving" `Quick
      test_interleaving_deterministic;
    Alcotest.test_case "single-task schedule is byte-identical to serial" `Quick
      test_serial_byte_identity;
    Alcotest.test_case "forced interleavings: read-validate-retry never tears" `Quick
      test_forced_read_validate_retry;
    Alcotest.test_case "warehouse readers take the optimistic path" `Quick
      test_warehouse_optimistic_path_exercised;
    Alcotest.test_case "reader progress under continuous mutation" `Quick
      test_reader_progress_under_continuous_mutation;
    Alcotest.test_case "not-resident fallback reloads through the latched path" `Quick
      test_fallback_on_nonresident_page;
    Alcotest.test_case "a recycled buffer holding a foreign page never validates" `Quick
      test_recycled_buffer_foreign_page;
  ]
