(* Tests for the benchmark's own helpers: the seeded generator, the
   percentile sample rule and span self time. *)

module Warehouse = Vnl_warehouse.Warehouse
module Delta = Vnl_warehouse.Delta
module Source = Vnl_warehouse.Source
module Sales_gen = Vnl_workload.Sales_gen
module M = Measure

let render batches =
  Array.to_list batches
  |> List.concat_map (List.map (Format.asprintf "%a" Delta.pp_change))
  |> String.concat "\n"

let test_same_seed_same_bytes () =
  let make seed =
    let g = Gen.create ~seed ~days:10 ~rows_per_group:1 in
    let load = Format.asprintf "%a" (Format.pp_print_list Delta.pp_change) (Gen.initial_load g) in
    load ^ render (Gen.batches g ~count:20 ~size:400)
  in
  Alcotest.(check string) "seed 7 twice" (make 7) (make 7);
  Alcotest.(check bool) "seeds 7 and 8 differ" false (String.equal (make 7) (make 8))

(* [Source.apply] raises on a Delete or Update of an absent row, so a clean
   pass over every batch means each one targeted a live row. *)
let test_targets_live_rows () =
  let g = Gen.create ~seed:3 ~days:4 ~rows_per_group:1 in
  let src = Source.create Sales_gen.sales_schema in
  Source.apply src (Gen.initial_load g);
  Array.iter (Source.apply src) (Gen.batches g ~count:200 ~size:400);
  Alcotest.(check int) "rows tracked" (Gen.live_rows g) (Source.row_count src)

let test_stationary () =
  let g = Gen.create ~seed:5 ~days:40 ~rows_per_group:1 in
  let wh = Warehouse.create [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales" (Gen.initial_load g);
  ignore (Warehouse.refresh wh);
  let rows0 = Gen.live_rows g and groups0 = Gen.group_count g in
  let view_groups () = List.length (Warehouse.expected_view wh "DailySales") in
  Alcotest.(check int) "generator and view agree on groups" groups0 (view_groups ());
  Array.iter
    (fun b ->
      Warehouse.queue_changes wh ~view:"DailySales" b;
      ignore (Warehouse.refresh wh))
    (Gen.batches g ~count:100 ~size:400);
  Alcotest.(check int) "row count unchanged" rows0 (Gen.live_rows g);
  let groups = view_groups () in
  Alcotest.(check int) "generator and view still agree" (Gen.group_count g) groups;
  Alcotest.(check bool)
    (Printf.sprintf "groups %d within %.0f%% of %d" groups (100.0 *. Workload.group_slack) groups0)
    true
    (Workload.within Workload.group_slack ~start:groups0 ~now:groups)

let filled n =
  let s = M.samples () in
  for i = 1 to n do
    M.add s (float_of_int i)
  done;
  s

let test_percentile_rule () =
  let p s q = Option.map fst (M.percentile s q) in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "p50 of 19: 9 beyond" None (p (filled 19) 0.5);
  Alcotest.check opt "p50 of 20: 10 beyond" (Some 10.0) (p (filled 20) 0.5);
  Alcotest.check opt "p90 of 99" None (p (filled 99) 0.9);
  Alcotest.check opt "p90 of 100" (Some 90.0) (p (filled 100) 0.9);
  Alcotest.check opt "p99 of 999" None (p (filled 999) 0.99);
  Alcotest.check opt "p99 of 1000" (Some 990.0) (p (filled 1000) 0.99);
  Alcotest.(check (option int)) "count reported" (Some 1000)
    (Option.map snd (M.percentile (filled 1000) 0.99))

(* root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [8, 12]
   (running past the root); the grandchild [3, 4] lies inside a child and
   must not count twice. *)
let test_self_time () =
  let sp id parent start stop = { M.id; parent; req = 1; name = string_of_int id; start; stop } in
  let spans =
    [ sp 1 0 0.0 10.0; sp 2 1 1.0 3.0; sp 3 1 2.0 5.0; sp 4 3 3.0 4.0; sp 5 1 8.0 12.0 ]
  in
  let self = List.map (fun ((s : M.span), t) -> (s.id, t)) (M.self_times spans) in
  let check id want = Alcotest.(check (float 1e-9)) (Printf.sprintf "span %d" id) want (List.assoc id self) in
  check 1 4.0;
  check 2 2.0;
  check 3 2.0;
  check 4 1.0;
  check 5 4.0

let test_recorder_nesting () =
  let r = M.recorder ~on:true in
  M.request r "root" (fun () -> M.span r "child" (fun () -> M.span r "leaf" ignore));
  M.request r "root" ignore;
  let by name = List.filter (fun (s : M.span) -> s.name = name) r.spans in
  match (by "root", by "child", by "leaf") with
  | [ later; first ], [ child ], [ leaf ] ->
    Alcotest.(check int) "child under root" first.id child.parent;
    Alcotest.(check int) "leaf under child" child.id leaf.parent;
    Alcotest.(check int) "request id shared" first.id leaf.req;
    Alcotest.(check bool) "next request is new" true (later.req = later.id && later.id <> first.id)
  | _ -> Alcotest.fail "unexpected spans"

(* Lateness is taken over the merged rounds: only sessions more than
   [late_ms] late count, and the latest is kept. *)
let test_lateness_over_rounds () =
  let round lates =
    let t = Workload.tally () in
    List.iter (M.add t.late) lates;
    t.ok <- List.length lates;
    t
  in
  let t = Workload.merge [ round [ 0.0; 2.0 ]; round [ 0.5; 1.0; 30.0; 0.2 ] ] in
  Alcotest.(check int) "counts summed" 6 t.ok;
  let frac, worst = Workload.lateness t in
  Alcotest.(check (float 1e-9)) "two of six late" (2.0 /. 6.0) frac;
  Alcotest.(check (float 1e-9)) "latest" 30.0 worst;
  Alcotest.(check (float 0.0)) "no sessions, none late" 0.0 (fst (Workload.lateness (Workload.tally ())))

let () =
  Alcotest.run "perfbench"
    [
      ( "gen",
        [
          Alcotest.test_case "same seed gives byte-identical batches" `Quick test_same_seed_same_bytes;
          Alcotest.test_case "deletes and updates target live rows" `Quick test_targets_live_rows;
          Alcotest.test_case "a generated sequence is stationary" `Quick test_stationary;
        ] );
      ( "measure",
        [
          Alcotest.test_case "percentile needs ten samples beyond it" `Quick test_percentile_rule;
          Alcotest.test_case "self time on a hand-built span tree" `Quick test_self_time;
          Alcotest.test_case "recorder nests spans and shares request ids" `Quick test_recorder_nesting;
          Alcotest.test_case "generator lateness over merged rounds" `Quick test_lateness_over_rounds;
        ] );
    ]
