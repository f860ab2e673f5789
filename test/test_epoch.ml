(* Epoch-based session pinning: the horizon tuple GC and catalog
   retirement lean on.  Unit tests nail the store-then-revalidate pin
   protocol (the begin/advance race) and slot growth. *)

module Epoch = Vnl_util.Epoch

let check = Alcotest.check

(* --- the begin/advance race -------------------------------------------- *)

(* Simulate a refresh committing between a session's epoch read and its pin
   becoming visible: [current] returns the old epoch exactly once, then the
   new one.  The store-then-revalidate protocol must republish the pin at
   the new epoch — the naive read-then-store design pins 7 here, and GC at
   horizon 8 would free history the session still needs. *)
let test_pin_revalidates_after_advance () =
  let t : Epoch.t = Epoch.create ~initial:7 () in
  let reads = ref 0 in
  let current () =
    incr reads;
    if !reads <= 1 then 7 else 8
  in
  let slot, pinned = Epoch.pin ~current t in
  check Alcotest.int "pin landed on the post-advance epoch" 8 pinned;
  check (Alcotest.option Alcotest.int) "slot publishes the same epoch" (Some 8)
    (Epoch.pinned_epoch slot);
  Epoch.unpin slot;
  check (Alcotest.option Alcotest.int) "unpinned slot reads as free" None
    (Epoch.pinned_epoch slot)

let test_min_pinned_and_growth () =
  let t : Epoch.t = Epoch.create ~initial:100 ~slots:2 () in
  (* Exceed the initial slot capacity: the array must grow while earlier
     pins stay visible through the shared cells. *)
  let pins = List.init 20 (fun _ -> fst (Epoch.pin t)) in
  check Alcotest.int "all pins bound the horizon" 100 (Epoch.min_pinned t);
  Epoch.advance t 105;
  check Alcotest.int "old pins still bound the horizon" 100 (Epoch.min_pinned t);
  List.iter Epoch.unpin pins;
  check Alcotest.int "horizon is the epoch once all pins drop" 105 (Epoch.min_pinned t);
  Epoch.advance t 103;
  check Alcotest.int "advance is monotone" 105 (Epoch.current t)

let suite =
  [
    Alcotest.test_case "pin revalidates across a concurrent advance" `Quick
      test_pin_revalidates_after_advance;
    Alcotest.test_case "min_pinned across slot growth; monotone advance" `Quick
      test_min_pinned_and_growth;
  ]
