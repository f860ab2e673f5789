(* Clock, samples, percentiles and the span recorder.

   Every time here is wall time from the monotonic clock, read from the
   benchmark's own code around calls into the system: the system's own
   [Obs] spans stamp [Sys.time], which is process CPU time summed over
   every domain, so none of their durations are used. *)

(* Seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Unix.sleepf d

(* ---------- samples and percentiles ---------- *)

type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 64 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.xs then begin
    let bigger = Array.make (2 * s.n) 0.0 in
    Array.blit s.xs 0 bigger 0 s.n;
    s.xs <- bigger
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sum s =
  let t = ref 0.0 in
  for i = 0 to s.n - 1 do
    t := !t +. s.xs.(i)
  done;
  !t

(* A percentile is reported only when at least this many samples lie
   beyond it; below that it is an estimate of a handful of outliers. *)
let min_beyond = 10

(* Nearest-rank percentile [p] in (0, 1): [Some (value, n)] when at least
   {!min_beyond} of the [n] samples rank above it, [None] otherwise. *)
let percentile s p =
  let n = s.n in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  if n = 0 || n - rank < min_beyond then None
  else begin
    let sorted = Array.sub s.xs 0 n in
    Array.sort Float.compare sorted;
    Some (sorted.(rank - 1), n)
  end

(* ---------- spans ---------- *)

type span = {
  id : int;
  parent : int;  (** 0 for a request's root span. *)
  req : int;  (** Shared by every span of one session, refresh or cycle. *)
  name : string;
  start : float;
  stop : float;
}

(* One recorder per domain, so recording takes no lock; ids are drawn from
   one counter so they are unique across recorders. *)
type recorder = {
  on : bool;
  mutable spans : span list;
  mutable stack : int list;  (** Open spans, innermost first. *)
  mutable req : int;
}

let next_id = Atomic.make 1

let recorder ~on = { on; spans = []; stack = []; req = 0 }

let record r ~root name f =
  if not r.on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match r.stack with p :: _ when not root -> p | _ -> 0 in
    let saved = r.req in
    if root then r.req <- id;
    let start = now () in
    r.stack <- id :: r.stack;
    let finish () =
      let stop = now () in
      r.stack <- List.tl r.stack;
      r.spans <- { id; parent; req = r.req; name; start; stop } :: r.spans;
      r.req <- saved
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A span around [f], child of the innermost open span of [r]. *)
let span r name f = record r ~root:false name f

(* A root span that starts a new request: its spans share its id. *)
let request r name f = record r ~root:true name f

(* Record an already-timed interval as a child of the innermost open span
   (for intervals cut at a hook inside a call, not around a call). *)
let interval r name ~start ~stop =
  if r.on then begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match r.stack with p :: _ -> p | [] -> 0 in
    r.spans <- { id; parent; req = r.req; name; start; stop } :: r.spans
  end

(* Self time of every span: its duration minus the part of its interval
   that the union of its children's intervals covers. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, s.start) kids
      in
      (s, s.stop -. s.start -. covered))
    spans

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"req\": %d, \"name\": %S, \"start_s\": %.9f, \
         \"end_s\": %.9f}\n"
        s.id s.parent s.req s.name s.start s.stop)
    (List.sort (fun a b -> Float.compare a.start b.start) spans);
  close_out oc
