(* Spans for the traced run, recorded by the benchmark around its own
   calls into each layer's public functions (nothing inside lib/ is
   instrumented).  A span has a name, start, stop, parent span and op
   id; spans of one replayed client op share the op id.  Spans are kept
   in memory and written out once, at the end of the run.

   [side] spans time a call that also runs inside another public call
   (e.g. [Plan.choose], which [Path_query.eval] repeats internally): they
   are reported as layer metrics but left out of coverage, since their
   time cannot be subtracted from the call that contains them. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  op : int;
  name : string;
  side : bool;
  start : float;
  stop : float;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let op_id = ref 0
let now = Lxu_util.Deadline.now

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  op_id := 0

let span ?(side = false) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      let stop = now () in
      stack := List.tl !stack;
      recorded := { id; parent; op = !op_id; name; side; start; stop } :: !recorded
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* The root span of one replayed client op; its children are the layer
   calls the op is made of. *)
let op name f =
  incr op_id;
  span name f

let duration s = s.stop -. s.start

(* Durations in seconds of every span called [name], in record order. *)
let durations name =
  List.rev !recorded |> List.filter (fun s -> s.name = name) |> List.map duration

(* Self time: a span's duration minus the part its children cover. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  fun s -> duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

(* For every root span called [root]: (its duration, the summed self
   time of its non-side descendants), in record order. *)
let attributed root =
  let self = self_times () in
  let spans = List.rev !recorded in
  let by_op = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 && not s.side then
        Hashtbl.replace by_op s.op (self s +. Option.value ~default:0.0 (Hashtbl.find_opt by_op s.op)))
    spans;
  List.filter_map
    (fun s ->
      if s.parent < 0 && s.name = root then
        Some (duration s, Option.value ~default:0.0 (Hashtbl.find_opt by_op s.op))
      else None)
    spans

let write path =
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tside\tstart_s\tstop_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%b\t%.9f\t%.9f\n" s.id s.parent s.op s.name s.side
        s.start s.stop)
    (List.rev !recorded);
  close_out oc
