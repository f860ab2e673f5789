(* The three workloads: serve, drain and evolve.

   All three run the paper's DailySales view (Example 2.1) and keep it the
   same size for the whole run: every maintenance batch is balanced
   (Gen.batch), dates are drawn inside the loaded range, and garbage
   collection runs on a fixed schedule.  Each has the same actors, weighted
   differently:
   - a maintainer that queues generated batches and commits them through
     [Warehouse.refresh_with] (and, on evolve, [Warehouse.evolve]);
   - a reader that runs Example 2.1 sessions (the same roll-up twice in one
     session) in [rounds] equal rounds: on a schedule for the first
     [paced_share] of each round, then back to back on one connection or
     domain for the rest;
   - in the per-layer run, a low-rate probe of the other read path
     (in-process on serve, over the wire on drain and evolve), so every
     layer is measured on every workload and a change aimed at one shows
     as flat on the others;
   - the wire server, started only where a wire client uses it: on serve,
     and on drain and evolve in the per-layer run, for the probe.
   Load comes from this process only: one reader plus the probe, never
   more client connections or reader domains than the two cores of the
   machine the baseline was taken on. *)

module Warehouse = Vnl_warehouse.Warehouse
module Twovnl = Vnl_core.Twovnl
module Client = Vnl_net.Client
module Server = Vnl_net.Server
module Wire = Vnl_net.Wire
module Database = Vnl_query.Database
module Buffer_pool = Vnl_storage.Buffer_pool
module Disk = Vnl_storage.Disk
module Obs = Vnl_obs.Obs
module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Sales_gen = Vnl_workload.Sales_gen
module M = Measure

let view = "DailySales"

(* The Example 2.1 analyst roll-up. *)
let sql = Vnl_net.Load.default_sql

(* The reader's window is cut into this many rounds.  A read figure is the
   median of its per-round values, so a host stall that lasts a few
   seconds moves one round, not the figure. *)
let rounds = 5

(* The reader runs on a schedule for this share of each round and back to
   back for the rest. *)
let paced_share = 0.7

(* The generator is late for a session when it sends it more than
   [late_ms] after the session was due and the previous one had ended.
   When more than [late_frac_limit] of the scheduled sessions are late, the
   read figures measure the generator too, and the run says so. *)
let late_ms = 1.0

let late_frac_limit = 0.1

(* Stationarity slack: live groups and disk pages at the end of a run (or
   cycle) against the start. *)
let group_slack = 0.03

let page_slack = 0.25

(* ADD COLUMN commits timed after the window on serve and drain. *)
let ddl_probe_count = 20

type shape = {
  days : int;  (** Loaded date range: 96 * days group slots, about 63% of them live. *)
  pool : int;  (** Buffer-pool frames of 4 KiB pages. *)
  batch : int;  (** Source changes per refresh. *)
  gc_every : int;
      (** Refreshes between [collect_garbage] calls on serve and drain;
          evolve collects after every ADD COLUMN. *)
  read_rate : float;  (** Scheduled reader sessions per second. *)
  probe_rate : float;  (** Probe sessions per second. *)
  versions : int;  (** nVNL's n. *)
}

(* Serve's reader rate is an eighth to a quarter of one connection's
   back-to-back capacity: low enough that queueing does not magnify the
   host's speed swings into the latency, and that a host at half speed
   still keeps up.
   Evolve runs 3VNL so that a session pinned across an ADD COLUMN also
   survives the refresh that follows it. *)
let shape_of = function
  | `Serve ->
    { days = 48; pool = 512; batch = 40; gc_every = 10; read_rate = 30.0; probe_rate = 5.0;
      versions = 2 }
  | `Drain ->
    { days = 165; pool = 64; batch = 400; gc_every = 1; read_rate = 10.0; probe_rate = 4.0;
      versions = 2 }
  | `Evolve ->
    { days = 165; pool = 512; batch = 100; gc_every = 1; read_rate = 10.0; probe_rate = 4.0;
      versions = 3 }

(* Serve's maintainer commits one batch every [serve_interval] seconds. *)
let serve_interval = 0.02

(* Drain generates this many batches per second of window, well above the
   rate it commits at, and ends the window early if it ever runs out. *)
let drain_batches_per_s = 10.0

(* ---------- outcomes of reader sessions ---------- *)

type outcome = Ok_pair | Expired | Inconsistent | Error of string | Busy | Shed

type tally = {
  lat : M.samples;  (** ms from due (or start) to the last reply; failures count as infinite. *)
  late : M.samples;  (** ms the generator sent after the connection was free and the session due. *)
  mutable ok : int;
  mutable expired : int;  (** Session attempts that expired, retried or not. *)
  mutable gave_up : int;  (** Operations whose every attempt expired. *)
  mutable inconsistent : int;
  mutable errors : int;
  mutable busy : int;
  mutable shed : int;
  mutable first_error : string option;
  mutable elapsed : float;  (** Seconds the back-to-back loop ran. *)
}

let tally () =
  {
    lat = M.samples ();
    late = M.samples ();
    ok = 0;
    expired = 0;
    gave_up = 0;
    inconsistent = 0;
    errors = 0;
    busy = 0;
    shed = 0;
    first_error = None;
    elapsed = 0.0;
  }

(* Reader operations: one Example 2.1 pair each, however many sessions it
   took. *)
let attempted t = t.ok + t.gave_up + t.inconsistent + t.errors + t.busy + t.shed

let failed t = t.gave_up + t.errors + t.busy + t.shed

(* Sessions begun, counting each expired attempt. *)
let session_attempts t = attempted t + t.expired - t.gave_up

(* An expired session is retried in a fresh one, as a wire client does on
   [Session_expired]; the operation fails only if every attempt expires.
   Expired attempts still count in read_fail_frac and core.expired_frac. *)
let max_attempts = 3

let with_retry t session target =
  let rec go k =
    match session target with
    | Expired when k < max_attempts ->
      t.expired <- t.expired + 1;
      go (k + 1)
    | outcome -> outcome
  in
  go 1

(* One tally holding every sample and count of [ts]. *)
let merge ts =
  let t = tally () in
  let append dst src =
    for i = 0 to M.count src - 1 do
      M.add dst src.M.xs.(i)
    done
  in
  List.iter
    (fun u ->
      append t.lat u.lat;
      append t.late u.late;
      t.ok <- t.ok + u.ok;
      t.expired <- t.expired + u.expired;
      t.gave_up <- t.gave_up + u.gave_up;
      t.inconsistent <- t.inconsistent + u.inconsistent;
      t.errors <- t.errors + u.errors;
      t.busy <- t.busy + u.busy;
      t.shed <- t.shed + u.shed;
      if t.first_error = None then t.first_error <- u.first_error;
      t.elapsed <- t.elapsed +. u.elapsed)
    ts;
  t

(* Share of late sessions, and the latest, in ms. *)
let lateness t =
  let n = M.count t.late in
  let late = ref 0 and worst = ref 0.0 in
  for i = 0 to n - 1 do
    let x = t.late.M.xs.(i) in
    if x > late_ms then incr late;
    worst := Float.max !worst x
  done;
  ((if n = 0 then 0.0 else float_of_int !late /. float_of_int n), !worst)

let note t outcome ~lat_ms =
  M.add t.lat (if outcome = Ok_pair then lat_ms else infinity);
  match outcome with
  | Ok_pair -> t.ok <- t.ok + 1
  | Expired ->
    t.expired <- t.expired + 1;
    t.gave_up <- t.gave_up + 1
  | Inconsistent -> t.inconsistent <- t.inconsistent + 1
  | Busy -> t.busy <- t.busy + 1
  | Shed -> t.shed <- t.shed + 1
  | Error msg ->
    t.errors <- t.errors + 1;
    if t.first_error = None then t.first_error <- Some msg

let sort_rows rows = List.sort (List.compare Value.compare) rows

let same_rows a b = List.equal (List.equal Value.equal) a b

(* ---------- the two read paths ---------- *)

let local_pair tr wh =
  let s = M.span tr "core.session_begin" (fun () -> Warehouse.begin_session wh) in
  Fun.protect ~finally:(fun () -> M.span tr "core.session_end" (fun () -> Warehouse.end_session wh s))
  @@ fun () ->
  match
    let first = M.span tr "core.query_first" (fun () -> Warehouse.query wh s sql) in
    let second = M.span tr "core.query_repeat" (fun () -> Warehouse.query wh s sql) in
    (first, second)
  with
  | exception Twovnl.Expired _ -> Expired
  | exception e -> Error (Printexc.to_string e)
  | first, second ->
    if same_rows (sort_rows first.rows) (sort_rows second.rows) then Ok_pair else Inconsistent

let wire_query tr c name =
  match M.span tr name (fun () -> Client.query c sql) with
  | Error e -> Stdlib.Error e
  | Ok (cursor, _, _) ->
    let rec fetch acc =
      match M.span tr "net.fetch" (fun () -> Client.fetch c ~cursor ~max_rows:64) with
      | Error e -> Stdlib.Error e
      | Ok (rows, last) ->
        let acc = List.rev_append rows acc in
        if last then Ok (sort_rows acc) else fetch acc
    in
    fetch []

let wire_pair tr port =
  match
    M.span tr "net.connect" (fun () -> Client.connect ~timeout_s:30.0 (Client.Tcp ("127.0.0.1", port)))
  with
  | exception Unix.Unix_error _ -> Busy
  | c -> (
    let failure (e : Client.error) =
      if e.code = Wire.Session_expired || Client.expired_notice c <> None then Expired
      else if e.code = Wire.Server_busy then Busy
      else Error e.message
    in
    try
      let outcome =
        match M.span tr "net.hello" (fun () -> Client.hello c) with
        | Error e -> failure e
        | Ok _ -> (
          match wire_query tr c "net.query_first" with
          | Error e -> failure e
          | Ok first -> (
            match wire_query tr c "net.query_repeat" with
            | Error e -> failure e
            | Ok second ->
              if same_rows first second then Ok_pair
              else if Client.expired_notice c <> None then Expired
              else Inconsistent))
      in
      (match outcome with
      | Ok_pair | Expired | Inconsistent -> ignore (M.span tr "net.bye" (fun () -> Client.bye c))
      | Error _ | Busy | Shed -> Client.disconnect c);
      outcome
    with Client.Disconnected _ | Unix.Unix_error _ ->
      Client.disconnect c;
      Shed)

(* ---------- the shared target ---------- *)

(* The warehouse and server the readers use.  Evolve swaps them between
   cycles: the swap clears the slot, then waits until no actor is inside a
   session.  An actor raises its flag before re-reading the slot, so it
   either sees the cleared slot or is seen as busy. *)
type target = { wh : Warehouse.t; port : int option }

type slot = { cur : target option Atomic.t; inside : bool Atomic.t array }

let slot ~actors = { cur = Atomic.make None; inside = Array.init actors (fun _ -> Atomic.make false) }

let publish sl t = Atomic.set sl.cur (Some t)

let retract sl =
  Atomic.set sl.cur None;
  Array.iter (fun f -> while Atomic.get f do Unix.sleepf 0.0005 done) sl.inside

let with_target sl actor f =
  let flag = sl.inside.(actor) in
  Atomic.set flag true;
  let r = match Atomic.get sl.cur with Some t -> Some (f t) | None -> None in
  Atomic.set flag false;
  r

(* Session i is due at [start + i / rate]; its latency runs from when it was
   due to when its last reply arrived, so a stall also charges the sessions
   queued behind it.  Sessions due while there is no target are skipped. *)
let open_loop sl actor ~rate ~start ~until t session =
  let i = ref 0 and prev_end = ref start in
  let due () = start +. (float_of_int !i /. rate) in
  while due () < until do
    let d = due () in
    M.sleep_until d;
    let sent = M.now () in
    (match with_target sl actor (with_retry t session) with
    | Some outcome ->
      let stop = M.now () in
      M.add t.late ((sent -. Float.max d !prev_end) *. 1000.0);
      prev_end := stop;
      note t outcome ~lat_ms:((stop -. d) *. 1000.0)
    | None -> ());
    incr i
  done

(* Back to back until [until]: capacity of one connection or domain. *)
let closed_loop sl actor ~until t session =
  let start = M.now () in
  let last = ref start in
  while M.now () < until do
    let t0 = M.now () in
    match with_target sl actor (with_retry t session) with
    | Some outcome ->
      last := M.now ();
      note t outcome ~lat_ms:((!last -. t0) *. 1000.0)
    | None -> Unix.sleepf 0.001
  done;
  t.elapsed <- !last -. start

(* ---------- maintenance ---------- *)

type maint = {
  queue_ms : M.samples;
  refresh_ms : M.samples;
  apply_ms : M.samples;
  durable_ms : M.samples;
  gc_ms : M.samples;
  gc_collected : M.samples;
  evolve_ms : M.samples;
  evolve_bytes : M.samples;
  mutable refreshes : int;
  mutable changes : int;  (** Source changes committed. *)
}

let maint () =
  {
    queue_ms = M.samples ();
    refresh_ms = M.samples ();
    apply_ms = M.samples ();
    durable_ms = M.samples ();
    gc_ms = M.samples ();
    gc_collected = M.samples ();
    evolve_ms = M.samples ();
    evolve_bytes = M.samples ();
    refreshes = 0;
    changes = 0;
  }

let ms a b = (b -. a) *. 1000.0

(* Queue one batch (timed on its own, outside every end-to-end figure) and
   commit it.  The hook passed to [refresh_with] runs after the batch is
   applied and before the flush, catalog save, commit and publish, so it
   splits the refresh into its apply and durable parts. *)
let refresh_batch tr m wh batch =
  M.request tr "maintenance" @@ fun () ->
  let q0 = M.now () in
  M.span tr "warehouse.queue_changes" (fun () -> Warehouse.queue_changes wh ~view batch);
  let q1 = M.now () in
  let hook = ref q1 in
  M.span tr "warehouse.refresh" (fun () ->
      let t0 = M.now () in
      ignore (Warehouse.refresh_with wh (fun _ -> hook := M.now ()));
      let t1 = M.now () in
      M.interval tr "warehouse.refresh_apply" ~start:t0 ~stop:!hook;
      M.interval tr "warehouse.refresh_durable" ~start:!hook ~stop:t1;
      m.refreshes <- m.refreshes + 1;
      m.changes <- m.changes + List.length batch;
      M.add m.queue_ms (ms q0 q1);
      M.add m.refresh_ms (ms t0 t1);
      M.add m.apply_ms (ms t0 !hook);
      M.add m.durable_ms (ms !hook t1))

let collect tr m wh =
  let t0 = M.now () in
  let n = M.span tr "warehouse.collect_garbage" (fun () -> Warehouse.collect_garbage wh) in
  M.add m.gc_ms (ms t0 (M.now ()));
  M.add m.gc_collected (float_of_int n)

let disk_of wh = Database.disk (Warehouse.database wh)

(* A fixed loop on one domain that touches no memory: its time follows the
   host's CPU speed and nothing of the system's, so a shift in it next to
   a shift in the figures points at the host.  Timed [host_loops] times
   before the window and again after it, with no other domain running. *)
let host_loops = 5

let host_loop samples =
  for _ = 1 to host_loops do
    let t0 = M.now () in
    let x = ref 0 in
    for i = 1 to 20_000_000 do
      x := !x + (i land 7)
    done;
    ignore (Sys.opaque_identity !x);
    M.add samples ((M.now () -. t0) *. 1000.0)
  done

let evolve_once tr m wh evolution =
  let disk = disk_of wh in
  let w0 = (Disk.stats disk).Disk.writes in
  let t0 = M.now () in
  M.request tr "warehouse.evolve" (fun () -> Warehouse.evolve wh [ evolution ]);
  M.add m.evolve_ms (ms t0 (M.now ()));
  M.add m.evolve_bytes (float_of_int (((Disk.stats disk).Disk.writes - w0) * Disk.page_size disk))

let add_column k =
  Warehouse.Add_column
    { view; attr = Schema.attr (Printf.sprintf "c%d" k) Dtype.Int; default = Value.Int k }

(* ---------- counters read as deltas over the window ---------- *)

type io = {
  mutable pool : (Buffer_pool.stats * Buffer_pool.stats) list;  (** (start, end) per warehouse. *)
  mutable disk : (Disk.stats * Disk.stats) list;
  mutable page_size : int;
}

let io () = { pool = []; disk = []; page_size = 4096 }

(* Snapshot a warehouse's counters; the returned thunk records the end. *)
let io_window io wh =
  let db = Warehouse.database wh in
  let p0 = Database.io_stats db and d0 = Disk.stats (Database.disk db) in
  fun () ->
    io.page_size <- Disk.page_size (Database.disk db);
    io.pool <- (p0, Database.io_stats db) :: io.pool;
    io.disk <- (d0, Disk.stats (Database.disk db)) :: io.disk

let obs_counter name =
  match List.find_opt (fun c -> Obs.Counter.name c = name) (Obs.Registry.counters Obs.Registry.default) with
  | Some c -> Obs.Counter.get c
  | None -> 0

let obs_names =
  [
    "twovnl.reader_queries"; "twovnl.view_cache_hits"; "reader.visibility_decodes";
    "twovnl.sessions_opened"; "twovnl.sessions_expired"; "twovnl.reader_plan_hits";
    "twovnl.reader_plan_misses"; "twovnl.plan_gen_invalidations";
  ]

(* ---------- one run ---------- *)

type run = {
  kind : [ `Serve | `Drain | `Evolve ];
  shape : shape;
  setup_s : M.samples;
  host_ms : M.samples;  (** The fixed host loop, ms per pass. *)
  reads : tally array;  (** Scheduled sessions of the reader, per round. *)
  capacity : tally array;  (** Back-to-back sessions of the reader, per round. *)
  probe : tally;
  maint : maint;
  io : io;
  mutable bytes_per_group : float list;
  mutable gate_failures : string list;
  mutable window_s : float;
  mutable minor_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable obs : (string * int) list;  (** Counter deltas over the window. *)
  mutable spans : M.span list;
  mutable evolutions : int;
  mutable heap_peak_mb : float;  (** Peak major heap of the process so far, at the end of the run. *)
}

(* Every tally of a run: the reader's rounds and the probe. *)
let tallies r = Array.to_list r.reads @ Array.to_list r.capacity @ [ r.probe ]

(* The generator's lateness over the scheduled sessions of a run. *)
let generator_lateness r = lateness (merge (r.probe :: Array.to_list r.reads))

let gate r ok msg = if not ok then r.gate_failures <- msg :: r.gate_failures

let sorted_tuples l = List.sort Tuple.compare l

(* (b) the view read in a fresh session equals the recomputed ground truth. *)
let check_view r wh what =
  let s = Warehouse.begin_session wh in
  let got = sorted_tuples (Warehouse.read_view wh s view) in
  Warehouse.end_session wh s;
  let want = sorted_tuples (Warehouse.expected_view wh view) in
  gate r (List.equal Tuple.equal got want)
    (Printf.sprintf "%s: view differs from the recomputed view (%d vs %d groups)" what
       (List.length got) (List.length want));
  List.length got

(* (c) once every reader is gone, no session still pins a version. *)
let check_horizon r wh what =
  ignore (Warehouse.collect_garbage wh);
  let vnl = Warehouse.vnl wh in
  let lag = Twovnl.current_vn vnl - Twovnl.min_session_vn vnl in
  gate r (lag = 0) (Printf.sprintf "%s: %d versions still pinned after the readers stopped" what lag)

let within slack ~start ~now = Float.abs (float_of_int (now - start)) <= slack *. float_of_int start

let check_stationary r ~what ~groups0 ~groups ~pages0 ~pages =
  gate r (within group_slack ~start:groups0 ~now:groups)
    (Printf.sprintf "%s: live groups %d, started at %d (slack %.0f%%)" what groups groups0
       (100.0 *. group_slack));
  gate r (within page_slack ~start:pages0 ~now:pages)
    (Printf.sprintf "%s: disk pages %d, started at %d (slack %.0f%%)" what pages pages0
       (100.0 *. page_slack))

(* Every input of a run, generated from the seed before anything is timed:
   the initial load, its group count, and the maintenance batches. *)
type inputs = { load : Vnl_warehouse.Delta.change list; groups0 : int; batches : Vnl_warehouse.Delta.change list array }

let inputs r ~seed ~count =
  let gen = Gen.create ~seed ~days:r.shape.days ~rows_per_group:1 in
  let load = Gen.initial_load gen in
  let groups0 = Gen.group_count gen in
  { load; groups0; batches = Gen.batches gen ~count ~size:r.shape.batch }

(* Build the warehouse, load it, refresh, and start the server if a wire
   client will use it: the set-up that setup_s times. *)
let build r inp ~server =
  let load = inp.load in
  let t0 = M.now () in
  let wh = Warehouse.create ~n:r.shape.versions ~pool_capacity:r.shape.pool [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view load;
  ignore (Warehouse.refresh wh);
  let srv =
    if server then Some (Server.start (Server.Tcp { host = "127.0.0.1"; port = 0 }) (Warehouse.vnl wh))
    else None
  in
  M.add r.setup_s (M.now () -. t0);
  (wh, srv)

let stop_server = Option.iter Server.stop

let target wh srv = { wh; port = Option.map Server.port srv }

let new_run kind =
  {
    kind;
    shape = shape_of kind;
    setup_s = M.samples ();
    host_ms = M.samples ();
    reads = Array.init rounds (fun _ -> tally ());
    capacity = Array.init rounds (fun _ -> tally ());
    probe = tally ();
    maint = maint ();
    io = io ();
    bytes_per_group = [];
    gate_failures = [];
    window_s = 0.0;
    minor_words = 0.0;
    minor_gcs = 0;
    major_gcs = 0;
    obs = [];
    spans = [];
    evolutions = 0;
    heap_peak_mb = 0.0;
  }

(* Reader actor: [rounds] rounds of scheduled sessions, then back to back.
   A round's schedule starts when the previous round's last session has
   ended, so no round inherits a backlog from the one before. *)
let reader r sl ~start ~seconds session =
  let len = seconds /. float_of_int rounds in
  for k = 0 to rounds - 1 do
    let round_start = Float.max (start +. (float_of_int k *. len)) (M.now ()) in
    let paced_until = round_start +. (paced_share *. len) in
    open_loop sl 0 ~rate:r.shape.read_rate ~start:round_start ~until:paced_until r.reads.(k) session;
    closed_loop sl 0 ~until:(start +. (float_of_int (k + 1) *. len)) r.capacity.(k) session
  done

(* The probe runs only in the per-layer run (both passes, so the tracing
   overhead compares like with like): it is there to measure the other read
   path's layers, and in the end-to-end run it would be one more runnable
   domain competing for the two cores the figures are taken on. *)
let spawn_probe r sl ~start ~until ~on session =
  if on then Some (Domain.spawn (fun () -> open_loop sl 1 ~rate:r.shape.probe_rate ~start ~until r.probe session))
  else None

let join_probe = Option.iter Domain.join

let local_session tr (t : target) = M.request tr "core.session" (fun () -> local_pair tr t.wh)

let wire_session tr (t : target) =
  match t.port with
  | Some port -> M.request tr "net.session" (fun () -> wire_pair tr port)
  | None -> invalid_arg "wire_session: no server"


(* Snapshot the runtime and [Obs] counters; the returned thunk stores the
   deltas in [r]. *)
let counters_window r =
  let obs0 = List.map obs_counter obs_names and gc0 = Gc.quick_stat () in
  fun () ->
    let gc1 = Gc.quick_stat () in
    r.minor_words <- gc1.minor_words -. gc0.minor_words;
    r.minor_gcs <- gc1.minor_collections - gc0.minor_collections;
    r.major_gcs <- gc1.major_collections - gc0.major_collections;
    r.obs <- List.map2 (fun n c0 -> (n, obs_counter n - c0)) obs_names obs0

let all_spans recorders = Array.fold_left (fun acc tr -> List.rev_append tr.M.spans acc) [] recorders

let disk_bytes wh =
  let d = disk_of wh in
  float_of_int (Disk.page_count d * Disk.page_size d)

(* Time ADD COLUMN on the run's final view (serve and drain). *)
let ddl_probe r tr wh =
  for k = 1 to ddl_probe_count do
    evolve_once tr r.maint wh (add_column k)
  done;
  r.evolutions <- ddl_probe_count

(* Serve and drain: one warehouse for the whole run.  Serve's maintainer
   commits on a fixed schedule from its own domain while this domain runs
   the reader over the wire; drain's maintainer commits back to back on
   this domain while a reader domain runs in-process sessions.  The
   warehouse is set up [setups] times for setup_s; each set-up starts from
   a compacted heap, and all but the last are dropped at once. *)
let run_single r ~seed ~seconds ~trace ~probing ~setups =
  let sh = r.shape in
  let serve = r.kind = `Serve in
  let count =
    if serve then int_of_float (Float.ceil (seconds /. serve_interval)) + 1
    else int_of_float (seconds *. drain_batches_per_s) + 1
  in
  let inp = inputs r ~seed ~count in
  let batches = inp.batches and groups0 = inp.groups0 in
  let set_up () =
    Gc.compact ();
    build r inp ~server:(serve || probing)
  in
  for _ = 2 to setups do
    stop_server (snd (set_up ()))
  done;
  let wh, srv = set_up () in
  let pages0 = Disk.page_count (disk_of wh) in
  let sl = slot ~actors:2 in
  publish sl (target wh srv);
  let recorders = Array.init 3 (fun _ -> M.recorder ~on:trace) in
  let reader_session, probe_session =
    if serve then (wire_session, local_session) else (local_session, wire_session)
  in
  host_loop r.host_ms;
  (* Every run enters the window, and the probe after it, with the same
     heap: no garbage left over from set-up or from the window. *)
  Gc.compact ();
  let close_counters = counters_window r in
  let close_io = io_window r.io wh in
  let start = M.now () +. 0.05 in
  let until = start +. seconds in
  let maintain tr =
    let i = ref 0 in
    let next () =
      if serve then start +. (float_of_int !i *. serve_interval) else M.now ()
    in
    while !i < count && next () < until do
      let due = next () in
      M.sleep_until due;
      refresh_batch tr r.maint wh batches.(!i);
      incr i;
      if !i mod sh.gc_every = 0 then collect tr r.maint wh
    done;
    r.window_s <- M.now () -. start
  in
  let probe_dom = spawn_probe r sl ~start ~until ~on:probing (probe_session recorders.(1)) in
  if serve then begin
    let maint_dom = Domain.spawn (fun () -> maintain recorders.(2)) in
    reader r sl ~start ~seconds (reader_session recorders.(0));
    Domain.join maint_dom
  end
  else begin
    let read_dom =
      Domain.spawn (fun () -> reader r sl ~start ~seconds (reader_session recorders.(0)))
    in
    maintain recorders.(2);
    Domain.join read_dom
  end;
  join_probe probe_dom;
  close_io ();
  close_counters ();
  host_loop r.host_ms;
  retract sl;
  stop_server srv;
  let what = if serve then "serve" else "drain" in
  check_horizon r wh what;
  let groups = check_view r wh what in
  check_stationary r ~what ~groups0 ~groups ~pages0 ~pages:(Disk.page_count (disk_of wh));
  r.bytes_per_group <- [ disk_bytes wh /. float_of_int groups ];
  Gc.compact ();
  ddl_probe r recorders.(2) wh;
  r.spans <- all_spans recorders

(* Evolve: whole cycles until the window has passed.  Each cycle builds a
   fresh warehouse from the seed, runs 8 x (balanced refresh, ADD COLUMN,
   collect_garbage) and one CREATE INDEX, checks the view, and tears the
   warehouse down, so the table's arity is the same at the same point of
   every run. *)
let evolutions_per_cycle = 8

let run_evolve r ~seed ~seconds ~trace ~probing =
  let inp = inputs r ~seed ~count:evolutions_per_cycle in
  let sl = slot ~actors:2 in
  let recorders = Array.init 3 (fun _ -> M.recorder ~on:trace) in
  let tr = recorders.(2) in
  host_loop r.host_ms;
  Gc.compact ();
  let close_counters = counters_window r in
  let start = M.now () +. 0.05 in
  let until = start +. seconds in
  let read_dom =
    Domain.spawn (fun () -> reader r sl ~start ~seconds (local_session recorders.(0)))
  in
  let probe_dom = spawn_probe r sl ~start ~until ~on:probing (wire_session recorders.(1)) in
  let first_end = ref None in
  let cycle = ref 0 in
  while M.now () < until do
    incr cycle;
    let what = Printf.sprintf "evolve cycle %d" !cycle in
    M.request tr "cycle" @@ fun () ->
    let wh, srv = M.span tr "setup" (fun () -> build r inp ~server:probing) in
    let close_io = io_window r.io wh in
    publish sl (target wh srv);
    Array.iteri
      (fun k batch ->
        refresh_batch tr r.maint wh batch;
        if k = 0 then begin
          (* (d) a session pinned before ADD COLUMN keeps the old arity; one
             begun after it sees the new column.  Neither reads before the
             commit, so neither answer can come from a session's cache. *)
          let arity s =
            let a = match Warehouse.read_view wh s view with t :: _ -> Tuple.arity t | [] -> 0 in
            Warehouse.end_session wh s;
            a
          in
          let a0 = arity (Warehouse.begin_session wh) in
          let pinned = Warehouse.begin_session wh in
          evolve_once tr r.maint wh (add_column (k + 1));
          let fresh = Warehouse.begin_session wh in
          let old_arity = arity pinned and new_arity = arity fresh in
          gate r (old_arity = a0 && new_arity = a0 + 1)
            (Printf.sprintf "%s: arity %d/%d across ADD COLUMN, expected %d/%d" what old_arity
               new_arity a0 (a0 + 1))
        end
        else evolve_once tr r.maint wh (add_column (k + 1));
        r.evolutions <- r.evolutions + 1;
        collect tr r.maint wh)
      inp.batches;
    Warehouse.evolve wh [ Warehouse.Add_index { view; index = "ix_city"; attrs = [ "city" ] } ];
    retract sl;
    close_io ();
    stop_server srv;
    check_horizon r wh what;
    let groups = check_view r wh what in
    let pages = Disk.page_count (disk_of wh) in
    (* Every cycle ends in the same state: compare it with the first. *)
    (match !first_end with
    | None -> first_end := Some pages
    | Some pages0 -> check_stationary r ~what ~groups0:inp.groups0 ~groups ~pages0 ~pages);
    r.bytes_per_group <- (disk_bytes wh /. float_of_int groups) :: r.bytes_per_group;
    (* The next cycle starts from the same heap as this one did. *)
    Gc.compact ()
  done;
  r.window_s <- M.now () -. start;
  Domain.join read_dom;
  join_probe probe_dom;
  close_counters ();
  host_loop r.host_ms;
  r.spans <- all_spans recorders

let run kind ~seed ~seconds ~trace ~probing ~setups =
  let r = new_run kind in
  Obs.enabled := trace;
  (match kind with
  | `Serve | `Drain -> run_single r ~seed ~seconds ~trace ~probing ~setups
  | `Evolve -> run_evolve r ~seed ~seconds ~trace ~probing);
  Obs.enabled := false;
  r.heap_peak_mb <- float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6;
  r
