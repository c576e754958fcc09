(* The host this benchmark runs on may change speed by a fifth or more
   from one second to the next (neighbours on the same physical cores,
   frequency changes) without the guest seeing any stolen time. The
   probe is a fixed piece of OCaml work that uses none of the library
   — hash-table updates, list allocation and sorting, an array sort,
   the operations the engines spend their time on — timed between the
   benchmark's operations. Its time tracks the query times beside it
   (correlation 0.8-0.95 per instance on a 2-vCPU virtual machine). *)

let reference_ms = 20.

let sink = ref 0

let kernel () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 30_000 do
    Hashtbl.replace h ((i * 7919) land 4095) i;
    acc := !acc + (try Hashtbl.find h (i land 4095) with Not_found -> 0)
  done;
  let l = List.sort compare (List.init 20_000 (fun i -> (i * 7919) mod 10007)) in
  let a = Array.init 50_000 (fun i -> (i * 31) land 1023) in
  Array.sort compare a;
  sink := !acc + List.hd l + a.(0)

let run () =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  kernel ();
  let ms = Clock.ms_since t0 in
  Gc.full_major ();
  ms

let adjust ~probe_ms ms = ms *. reference_ms /. probe_ms
