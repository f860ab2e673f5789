(* The benchmark command.

     dune exec --root . --cache=disabled perfbench/main.exe -- \
       --workload serve|drain|evolve --seed N --seconds S --trace 0|1

   [--trace 0] runs the workload with tracing off and prints the
   end-to-end metrics: the bounded ones in the result line, the time
   figures with no bound in the table above it.  [--trace 1] runs it twice, a whole window each:
   untraced, then with spans recorded around every call into the layers
   (and [Obs] counters on); it prints the per-layer metrics and the tracing
   overhead, and writes the spans to .bench_trace/.  The last line of
   standard output is one JSON object; a failed correctness gate or
   stationarity check prints no numbers and exits 1. *)

module W = Workload
module M = Measure
module Buffer_pool = Vnl_storage.Buffer_pool
module Disk = Vnl_storage.Disk

exception Not_measured of string

(* Set-ups per run on serve and drain; setup_s is their median.  Evolve
   sets up once per cycle. *)
let setups = 15

(* One metric: [value] raises [Not_measured] when the figure cannot be
   given, which fails the run rather than print a number the sample rule
   forbids. *)
let metric name unit value =
  match value () with
  | v -> (name, v, unit)
  | exception Not_measured why -> raise (Not_measured (name ^ ": " ^ why))

let pct s p =
  match M.percentile s p with
  | Some (v, _) when Float.is_finite v -> v
  | Some _ -> raise (Not_measured "the percentile falls on failed sessions")
  | None ->
    raise
      (Not_measured
         (Printf.sprintf "%d samples, fewer than %d beyond p%.0f" (M.count s) M.min_beyond
            (100.0 *. p)))

(* The middle of a few repeats (set-ups, cycles, reader rounds), not a
   percentile of a distribution. *)
let median xs =
  match List.sort Float.compare xs with
  | [] -> raise (Not_measured "no samples")
  | l -> List.nth l (List.length l / 2)

let ratio a b = if b = 0.0 then raise (Not_measured "nothing to divide by") else a /. b

let to_list s = List.init (M.count s) (fun i -> s.M.xs.(i))

(* The median over the reader's rounds of a per-round figure. *)
let over_rounds tallies f = median (Array.to_list (Array.map f tallies))

(* The end-to-end metrics that hold a bound in BENCHMARK.json. *)
let end_to_end (r : W.run) =
  [
    metric "setup_s" "s" (fun () -> median (to_list r.setup_s));
    metric "heap_peak_mb" "MB" (fun () -> r.heap_peak_mb);
    metric "disk_bytes_per_group" "B" (fun () -> median r.bytes_per_group);
  ]

(* End-to-end figures with no bound: on the baseline machine they follow
   the host's CPU speed, which moved them further between runs than any
   bound allows (README).  Every run prints them; the per-layer run lists
   them, from its untraced pass. *)
let unbounded (r : W.run) =
  [
    metric "read_p50_ms" "ms" (fun () -> over_rounds r.reads (fun t -> pct t.W.lat 0.5));
    metric "read_p90_ms" "ms" (fun () -> pct (W.merge (Array.to_list r.reads)).lat 0.9);
    metric "read_sessions_per_s" "1/s" (fun () ->
        over_rounds r.capacity (fun t -> ratio (float_of_int t.W.ok) t.W.elapsed));
    metric "refresh_p50_ms" "ms" (fun () -> pct r.maint.refresh_ms 0.5);
    metric "drain_changes_per_s" "1/s" (fun () ->
        ratio (float_of_int r.maint.changes) (M.sum r.maint.refresh_ms /. 1000.0));
    metric "evolve_p50_ms" "ms" (fun () -> pct r.maint.evolve_ms 0.5);
  ]

let durations spans name ~scale =
  let s = M.samples () in
  List.iter (fun (sp : M.span) -> if sp.name = name then M.add s (sp.stop -. sp.start)) spans;
  scale *. pct s 0.5

let self_time selves name ~scale =
  let s = M.samples () in
  List.iter (fun ((sp : M.span), self) -> if sp.name = name then M.add s self) selves;
  scale *. pct s 0.5

let per_layer ~(plain : W.run) ~(traced : W.run) =
  let r = traced and m = traced.maint in
  let span name ~scale () = durations r.spans name ~scale in
  let selves = M.self_times r.spans in
  let self name ~scale () = self_time selves name ~scale in
  let ms = 1000.0 and us = 1e6 in
  let obs name = float_of_int (List.assoc name r.obs) in
  let pool f =
    float_of_int (List.fold_left (fun a (p0, p1) -> a + f p1 - f p0) 0 r.io.W.pool)
  in
  let disk f = float_of_int (List.fold_left (fun a (d0, d1) -> a + f d1 - f d0) 0 r.io.W.disk) in
  let total f = float_of_int (List.fold_left (fun a t -> a + f t) 0 (W.tallies r)) in
  let refreshes = float_of_int m.refreshes in
  let writes = disk (fun d -> d.Disk.writes) in
  let late_frac, late_max = W.generator_lateness r in
  let pooled_reads (r : W.run) = W.merge (Array.to_list r.reads) in
  (* Evolve commits 90-200 refreshes in a window, depending on the host's
     speed, and a p90 needs 100: take it over both passes. *)
  let refresh_p90 () =
    let both = M.samples () in
    List.iter (fun (r : W.run) -> List.iter (M.add both) (to_list r.maint.refresh_ms)) [ plain; traced ];
    pct both 0.9
  in
  let ops =
    match r.kind with
    | `Serve -> total W.attempted
    | `Drain -> float_of_int m.changes
    | `Evolve -> float_of_int r.evolutions
  in
  let overhead f () = ratio (f traced) (f plain) -. 1.0 in
  unbounded plain
  @ [
    metric "refresh_p90_ms" "ms" refresh_p90;
    metric "net.connect_ms" "ms" (span "net.connect" ~scale:ms);
    metric "net.hello_ms" "ms" (span "net.hello" ~scale:ms);
    metric "net.query_first_ms" "ms" (span "net.query_first" ~scale:ms);
    metric "net.query_repeat_ms" "ms" (span "net.query_repeat" ~scale:ms);
    metric "net.fetch_ms" "ms" (span "net.fetch" ~scale:ms);
    metric "net.bye_ms" "ms" (span "net.bye" ~scale:ms);
    metric "net.session_self_us" "us" (self "net.session" ~scale:us);
    metric "core.session_begin_us" "us" (span "core.session_begin" ~scale:us);
    metric "core.query_first_ms" "ms" (span "core.query_first" ~scale:ms);
    metric "core.query_repeat_ms" "ms" (span "core.query_repeat" ~scale:ms);
    metric "core.session_end_us" "us" (span "core.session_end" ~scale:us);
    metric "core.session_self_us" "us" (self "core.session" ~scale:us);
    metric "core.view_cache_hit_ratio" "ratio" (fun () ->
        ratio (obs "twovnl.view_cache_hits") (obs "twovnl.reader_queries"));
    metric "core.decodes_per_query" "count" (fun () ->
        ratio (obs "reader.visibility_decodes") (obs "twovnl.reader_queries"));
    metric "core.expired_frac" "ratio" (fun () ->
        ratio (obs "twovnl.sessions_expired") (obs "twovnl.sessions_opened"));
    metric "read_fail_frac" "ratio" (fun () ->
        ratio
          (total (fun t -> t.W.errors + t.busy + t.shed + t.expired))
          (total W.session_attempts));
    metric "warehouse.queue_ms" "ms" (fun () -> pct m.queue_ms 0.5);
    metric "warehouse.refresh_apply_ms" "ms" (fun () -> pct m.apply_ms 0.5);
    metric "warehouse.refresh_durable_ms" "ms" (fun () -> pct m.durable_ms 0.5);
    metric "warehouse.gc_ms" "ms" (fun () -> pct m.gc_ms 0.5);
    metric "warehouse.gc_collected" "count" (fun () ->
        ratio (M.sum m.gc_collected) (float_of_int (M.count m.gc_collected)));
    metric "storage.hit_rate" "ratio" (fun () ->
        ratio (pool (fun p -> p.Buffer_pool.hits)) (pool (fun p -> p.Buffer_pool.logical_reads)));
    metric "storage.misses_per_refresh" "count" (fun () ->
        ratio (pool (fun p -> p.Buffer_pool.misses)) refreshes);
    metric "storage.evictions_per_refresh" "count" (fun () ->
        ratio (pool (fun p -> p.Buffer_pool.evictions)) refreshes);
    metric "storage.writes_per_refresh" "count" (fun () -> ratio writes refreshes);
    metric "storage.seq_write_frac" "ratio" (fun () ->
        ratio (disk (fun d -> d.Disk.seq_writes)) writes);
    metric "storage.write_bytes_per_change" "B" (fun () ->
        ratio (writes *. float_of_int r.io.W.page_size) (float_of_int m.changes));
    metric "storage.pin_waits" "count" (fun () -> pool (fun p -> p.Buffer_pool.pin_waits));
    metric "storage.opt_retry_ratio" "ratio" (fun () ->
        ratio (pool (fun p -> p.Buffer_pool.opt_retries)) (pool (fun p -> p.Buffer_pool.opt_reads)));
    metric "storage.opt_fallback_frac" "ratio" (fun () ->
        ratio
          (pool (fun p -> p.Buffer_pool.opt_fallbacks))
          (pool (fun p -> p.Buffer_pool.opt_reads + p.Buffer_pool.opt_fallbacks)));
    metric "storage.write_bytes_per_evolve" "B" (fun () -> pct m.evolve_bytes 0.5);
    metric "query.plan_hits" "count" (fun () -> obs "twovnl.reader_plan_hits");
    metric "query.plan_misses" "count" (fun () -> obs "twovnl.reader_plan_misses");
    metric "query.plan_gen_invalidations" "count" (fun () -> obs "twovnl.plan_gen_invalidations");
    metric "runtime.minor_words_per_op" "words" (fun () -> ratio r.minor_words ops);
    metric "runtime.minor_gcs_per_s" "1/s" (fun () -> ratio (float_of_int r.minor_gcs) r.window_s);
    metric "runtime.major_gcs_per_s" "1/s" (fun () -> ratio (float_of_int r.major_gcs) r.window_s);
    metric "gen.late_frac" "ratio" (fun () -> late_frac);
    metric "gen.late_max_ms" "ms" (fun () -> late_max);
    metric "trace.read_p50_overhead" "ratio" (overhead (fun r -> pct (pooled_reads r).lat 0.5));
    metric "trace.refresh_p50_overhead" "ratio" (overhead (fun r -> pct r.W.maint.refresh_ms 0.5));
    metric "trace.spans" "count" (fun () -> float_of_int (List.length r.spans));
    metric "host.loop_ms" "ms" (fun () -> median (to_list plain.host_ms));
  ]

let write_trace name seed (r : W.run) =
  let dir = ".bench_trace" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" name seed) in
  M.write_spans path r.spans;
  path

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let gate_failures (r : W.run) =
  let inconsistent =
    List.filter_map
      (fun (what, (t : W.tally)) ->
        if t.inconsistent > 0 then
          Some (Printf.sprintf "%s: %d Example 2.1 pairs disagreed without expiry" what t.inconsistent)
        else None)
      [
        ("reader", W.merge (Array.to_list r.reads));
        ("reader (back to back)", W.merge (Array.to_list r.capacity));
        ("probe", r.probe);
      ]
  in
  List.rev_append r.gate_failures inconsistent

(* The sample counts behind every percentile, and how each session ended. *)
let summary (r : W.run) =
  let m = r.maint in
  let tally name (t : W.tally) =
    Printf.printf
      "  %-22s %5d operations: %d ok, %d expired attempts (%d gave up), %d inconsistent, %d \
       errors, %d busy, %d shed%s\n"
      name (W.attempted t) t.ok t.expired t.gave_up t.inconsistent t.errors t.busy t.shed
      (match t.first_error with Some e -> " (first error: " ^ e ^ ")" | None -> "")
  in
  Printf.printf "window %.1f s, %d reader rounds\n" r.window_s W.rounds;
  Printf.printf "  %-22s %s s\n" "set-ups"
    (String.concat " " (List.map (Printf.sprintf "%.4f") (to_list r.setup_s)));
  Printf.printf "  %-22s %s ms (before and after the window)\n" "host loop"
    (String.concat " " (List.map (Printf.sprintf "%.1f") (to_list r.host_ms)));
  tally "reader (scheduled)" (W.merge (Array.to_list r.reads));
  tally "reader (back to back)" (W.merge (Array.to_list r.capacity));
  tally "probe" r.probe;
  Printf.printf "  %-22s %5d refreshes, %d changes, %d evolves, %d gc calls\n"
    "maintenance" m.refreshes m.changes (M.count m.evolve_ms)
    (M.count m.gc_ms);
  let late_frac, late_max = W.generator_lateness r in
  Printf.printf "  %-22s %.3f of scheduled sessions more than %.0f ms late, latest %.1f ms\n"
    "generator" late_frac W.late_ms late_max;
  (* When the generator falls behind its schedule, the scheduled read
     figures time the generator as well as the system. *)
  if late_frac > W.late_frac_limit then
    Printf.eprintf
      "WARNING: the generator started %.0f%% of scheduled sessions more than %.0f ms late \
       (limit %.0f%%, latest %.1f ms): read_p50_ms measures the generator as well\n%!"
      (100.0 *. late_frac) W.late_ms (100.0 *. W.late_frac_limit) late_max

let result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "serve|drain|evolve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let kind =
    match !workload with
    | "serve" -> `Serve
    | "drain" -> `Drain
    | "evolve" -> `Evolve
    | w ->
      prerr_endline ("unknown workload " ^ w ^ " (serve, drain or evolve)");
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be at least 1 and --trace 0 or 1";
    exit 2
  end;
  let seconds = float_of_int !seconds in
  let runs =
    if !trace = 0 then [ W.run kind ~seed:!seed ~seconds ~trace:false ~probing:false ~setups ]
    else
      [
        W.run kind ~seed:!seed ~seconds ~trace:false ~probing:true ~setups:1;
        W.run kind ~seed:!seed ~seconds ~trace:true ~probing:true ~setups:1;
      ]
  in
  List.iter summary runs;
  let sessions = W.tallies in
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let attempted =
    sum (fun r ->
        List.fold_left (fun a t -> a + W.attempted t) 0 (sessions r) + r.maint.refreshes + r.evolutions)
  in
  let failed = sum (fun r -> List.fold_left (fun a t -> a + W.failed t) 0 (sessions r)) in
  (* A failed gate, or a figure the sample rule forbids, reports failure
     and no numbers. *)
  let fail msgs =
    List.iter (fun m -> Printf.eprintf "FAILED: %s\n" m) msgs;
    result ~correct:false ~attempted ~failed [];
    exit 1
  in
  (match List.concat_map gate_failures runs with [] -> () | msgs -> fail msgs);
  (* [shown] is printed as a table; [metrics] goes into the result line. *)
  let shown, metrics =
    try
      match runs with
      | [ r ] ->
        let e2e = end_to_end r in
        (e2e @ unbounded r, e2e)
      | [ plain; traced ] ->
        let path = write_trace !workload !seed traced in
        Printf.printf "spans written to %s\n" path;
        let layers = per_layer ~plain ~traced in
        (layers, layers)
      | _ -> assert false
    with Not_measured msg -> fail [ msg ]
  in
  (match List.filter (fun (_, v, _) -> not (Float.is_finite v)) shown with
  | [] -> ()
  | bad -> fail (List.map (fun (n, _, _) -> n ^ ": not a finite number") bad));
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %14.4f %s\n" name v unit) shown;
  result ~correct:true ~attempted ~failed metrics

let () = main ()
