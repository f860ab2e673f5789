(* Seeded input generator for the DailySales source.

   The generator keeps its own array-backed shadow of the live source rows,
   so drawing a victim for a Delete or Update is O(1) (swap-remove or
   in-place replace); [Sales_gen.gen_batch] instead copies the whole source
   for every row it picks.  Every batch is a pure function of the seed and
   the batches drawn before it, so a run can build all of its inputs before
   the timed window and hand the warehouse only the generated changes. *)

module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Delta = Vnl_warehouse.Delta
module Xorshift = Vnl_util.Xorshift
module Sales_gen = Vnl_workload.Sales_gen

(* DailySales groups per calendar day: one per (city, product line). *)
let groups_per_day = Array.length Sales_gen.cities * Array.length Sales_gen.product_lines

(* Day 0 is the paper's 10/14/96.  [Sales_gen.date_of_day] stops at the end
   of 1996 (78 days); the larger workloads need more distinct days, so walk
   a real calendar. *)
let date_of_day d =
  let days_in m y =
    match m with
    | 2 -> if y mod 4 = 0 then 29 else 28
    | 4 | 6 | 9 | 11 -> 30
    | _ -> 31
  in
  let rec walk m day y left =
    let room = days_in m y - day in
    if left <= room then Value.date_of_mdy m (day + left) y
    else if m = 12 then walk 1 1 (y + 1) (left - room - 1)
    else walk (m + 1) 1 y (left - room - 1)
  in
  walk 10 14 1996 d

type t = {
  rng : Xorshift.t;
  dates : Value.t array;
  mutable rows : Tuple.t array;  (** Live source rows in [0, len). *)
  mutable len : int;
}

let sale t =
  let city, state = Xorshift.pick t.rng Sales_gen.cities in
  let pl = Xorshift.pick t.rng Sales_gen.product_lines in
  let date = Xorshift.pick t.rng t.dates in
  Tuple.make Sales_gen.sales_schema
    [ Value.Str city; Value.Str state; Value.Str pl; date; Value.Int (10 + Xorshift.int t.rng 490) ]

let push t row =
  if t.len = Array.length t.rows then begin
    let bigger = Array.make (max 16 (2 * t.len)) row in
    Array.blit t.rows 0 bigger 0 t.len;
    t.rows <- bigger
  end;
  t.rows.(t.len) <- row;
  t.len <- t.len + 1

(* [rows_per_group * groups_per_day * days] uniformly random sales.  With
   inserts spread uniformly over the groups and deletes uniform over the
   rows, this per-group row count is already the steady state of the
   balanced batches below, so the number of non-empty groups (about
   [1 - e^-rows_per_group] of the slots) stays put for the whole run. *)
let create ~seed ~days ~rows_per_group =
  let t =
    {
      rng = Xorshift.create seed;
      dates = Array.init days date_of_day;
      rows = [||];
      len = 0;
    }
  in
  for _ = 1 to rows_per_group * groups_per_day * days do
    push t (sale t)
  done;
  t

let live_rows t = t.len

let initial_load t = List.init t.len (fun i -> Delta.Insert t.rows.(i))

type kind = Ins | Upd | Del

(* A balanced batch: 40% inserts, 20% updates, 40% deletes in a seeded
   order, so the row count is the same after every batch.  Deletes and
   updates always target a row that is live at that point of the batch
   (an updated row's new version replaces the old one in the shadow). *)
let batch t ~size =
  let ins = size * 2 / 5 and upd = size / 5 in
  let kinds = Array.init size (fun i -> if i < ins then Ins else if i < ins + upd then Upd else Del) in
  Xorshift.shuffle t.rng kinds;
  Array.to_list kinds
  |> List.map (function
       | Ins ->
         let row = sale t in
         push t row;
         Delta.Insert row
       | Del ->
         let i = Xorshift.int t.rng t.len in
         let row = t.rows.(i) in
         t.len <- t.len - 1;
         t.rows.(i) <- t.rows.(t.len);
         Delta.Delete row
       | Upd ->
         let i = Xorshift.int t.rng t.len in
         let old_row = t.rows.(i) in
         let amount = match Tuple.get old_row 4 with Value.Int a -> a | _ -> 0 in
         let restated = max 1 (amount + Xorshift.int_in t.rng (-50) 150) in
         let new_row = Tuple.set old_row 4 (Value.Int restated) in
         t.rows.(i) <- new_row;
         Delta.Update (old_row, new_row))

let batches t ~count ~size = Array.init count (fun _ -> batch t ~size)

(* Distinct DailySales groups among the live rows: the view's row count. *)
let group_count t =
  let seen = Hashtbl.create (2 * t.len) in
  for i = 0 to t.len - 1 do
    let r = t.rows.(i) in
    Hashtbl.replace seen (Tuple.get r 0, Tuple.get r 2, Tuple.get r 3) ()
  done;
  Hashtbl.length seen
