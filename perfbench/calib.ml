(* Host-speed calibration.

   On a shared host the speed of one core swings by 20% and more over a
   few seconds (neighbours share its caches and execution units), so two
   runs of the same ops time differently.  A fixed loop of benchmark
   code that calls nothing in the program, timed between the program's
   ops, slows down and speeds up with the host.  Every end-to-end time is
   reported scaled to the loop's reference speed:

     scaled = measured * reference_s / (median of the nearby loop times)

   A change to the program moves the measured time and leaves the loop
   alone, so it moves the scaled time by the same factor; a change in
   the host's speed moves both, and mostly cancels.  The loop's data is
   allocated once and a pass allocates only the time it returns, so the
   collector has next to nothing to do inside it. *)

let now = Trace.now

(* A 64 KiB ring of indices in random order (a pointer chase that stays
   in the core's private caches) and a 128 KiB byte buffer scanned with
   data-dependent branches, as a parser scans text. *)
let ring =
  let n = 1 lsl 13 in
  let rng = Random.State.make [| 20050614 |] in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let next = Array.make n 0 in
  Array.iteri (fun i p -> next.(p) <- perm.((i + 1) mod n)) perm;
  next

let text = Bytes.init (1 lsl 17) (fun i -> Char.chr ((i * 7919 + (i / 13)) land 0x7f))

let chase steps =
  let p = ref 0 and h = ref 0 in
  for _ = 1 to steps do
    p := Array.unsafe_get ring !p;
    h := ((!h * 31) + !p) land 0xFFFFFF
  done;
  !h

let scan () =
  let tags = ref 0 and h = ref 0 in
  for i = 0 to Bytes.length text - 1 do
    let c = Bytes.unsafe_get text i in
    if c = '<' then incr tags else if c > 'a' && c < 'q' then h := !h + i else if c = '"' then tags := !tags + 2
  done;
  !tags + !h

(* One pass: warm the ring (untimed by design: its first touch depends
   on what the program left in the caches), then chase and scan. *)
let kernel () =
  ignore (Sys.opaque_identity (chase (Array.length ring)));
  let t0 = now () in
  let h = chase 60_000 + scan () + scan () in
  ignore (Sys.opaque_identity h);
  now () -. t0

(* The kernel's time at the reference speed: about its median on an
   unloaded shared 2-vCPU VM.  Only the unit's scale depends on it. *)
let reference_s = 0.001

(* Every kernel time of the run, in order. *)
let history = ref (Array.make 4096 0.0)
let taken = ref 0
let last_sample = ref neg_infinity
let time_in_kernel = ref 0.0

let sample () =
  let t0 = now () in
  let k = kernel () in
  if !taken = Array.length !history then history := Array.append !history (Array.make !taken 0.0);
  !history.(!taken) <- k;
  incr taken;
  last_sample := now ();
  time_in_kernel := !time_in_kernel +. (!last_sample -. t0)

(* The number of kernel passes so far: a timed call that ends here lies
   between passes [mark () - 1] and [mark ()]. *)
let mark () = !taken

let median_of a =
  let b = Array.copy a in
  Array.sort compare b;
  let n = Array.length b in
  if n = 0 then reference_s else if n land 1 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

(* A half window's worth of passes, back to back: at the start of a
   phase, and on both sides of a long call. *)
let window = 8

let prime () =
  for _ = 1 to window do
    sample ()
  done

(* Between ops: one pass every [spacing] seconds. *)
let spacing = 0.02

let tick () = if now () -. !last_sample >= spacing then sample ()

(* [d] seconds measured between passes [k - 1] and [k], at the reference
   speed: scaled by the median of the [w] passes on each side (passes
   not yet taken are left out).  The host changes speed within a
   fraction of a second, so an op is scaled by the pass on each side of
   it: an op of 20 ms or more has a pass right before and right after
   it, a shorter one the passes that bracket its 20 ms stretch.  Wider
   windows measurably track the host worse. *)
let scale_at ?(w = 1) k d =
  let lo = max 0 (k - w) and hi = min !taken (k + w) in
  d *. reference_s /. median_of (Array.sub !history lo (hi - lo))

(* Passes taken inside a long call: a SIGALRM every [spacing] seconds
   runs one pass from its handler (at the call's next poll point), so
   the passes time the host while the call runs; the time spent in them
   is taken out of the call's. *)
let inside = ref []
let inside_s = ref 0.0
let inside_taken = ref 0

let inside_pass _ =
  let t0 = now () in
  inside := kernel () :: !inside;
  incr inside_taken;
  inside_s := !inside_s +. (now () -. t0);
  time_in_kernel := !time_in_kernel +. (now () -. t0)

let timer s = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

(* Times [f], a call long enough for the host to change speed inside it
   (a set-up or a recovery); returns its result, the measured time and
   the scaled time, scaled by the passes inside it and a primed window
   on each side. *)
let time f =
  prime ();
  let k = mark () in
  inside := [];
  inside_s := 0.0;
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle inside_pass) in
  let t0 = now () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        timer 0.0;
        Sys.set_signal Sys.sigalrm previous)
      (fun () ->
        timer spacing;
        f ())
  in
  let d = now () -. t0 -. !inside_s in
  prime ();
  let around = Array.sub !history (k - window) (2 * window) in
  let passes = Array.append around (Array.of_list !inside) in
  (r, d, d *. reference_s /. median_of passes)

(* For the report: the passes taken, the time they took, and their
   median against the reference. *)
let report () =
  Printf.sprintf "calib: %d kernel passes (%d inside long calls), %.3f s in the kernel, median %.4f ms (reference %.4f ms)"
    (!taken + !inside_taken) !inside_taken !time_in_kernel
    (median_of (Array.sub !history 0 !taken) *. 1000.0)
    (reference_s *. 1000.0)
