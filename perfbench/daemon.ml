open Lph_core
open Lphbench
module P = Serve_protocol

type t = { pid : int; socket : string; log : string; mutable alive : bool }

let live = ref []

let stop_all () =
  List.iter
    (fun d ->
      if d.alive then begin
        d.alive <- false;
        (try Unix.kill d.pid Sys.sigint with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
      end)
    !live;
  live := []

let () = at_exit stop_all

let counter = ref 0

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      None

(* The daemon runs with one domain (LPH_JOBS=1, whatever the caller's
   environment says). With the default two on a 2-vCPU machine, the
   helper domain makes every minor collection a two-domain
   stop-the-world whose cost rides on how the host schedules the idle
   vCPU: ten [serve-churn] runs split into two clusters 15% apart, and
   the single-domain daemon answered faster (148/s against 135/s,
   scaled). *)
let jobs = 1

let environment () =
  Array.append
    [| Printf.sprintf "LPH_JOBS=%d" jobs |]
    (Array.of_list (List.filter (fun v -> not (String.starts_with ~prefix:"LPH_JOBS=" v)) (Array.to_list (Unix.environment ()))))

(* The socket path is relative to the working directory, which keeps it
   under the 108-byte sun_path limit however deep the checkout is. *)
let spawn ~exe ~dir ?cache_mb () =
  incr counter;
  let base = Filename.concat dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter) in
  let socket = base ^ ".sock" and log = base ^ ".log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [ exe; "--socket"; socket ]
    @ match cache_mb with Some mb -> [ "--cache-mb"; string_of_int mb ] | None -> []
  in
  let pid = Unix.create_process_env exe (Array.of_list args) (environment ()) Unix.stdin out out in
  Unix.close out;
  let d = { pid; socket; log; alive = true } in
  live := d :: !live;
  d

let connect_retrying d =
  let deadline = Clock.now_ns () |> Int64.add 30_000_000_000L in
  let rec go () =
    match connect d.socket with
    | Some fd -> fd
    | None ->
        if Int64.compare (Clock.now_ns ()) deadline > 0 then failwith ("daemon never listened on " ^ d.socket);
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            d.alive <- false;
            failwith "daemon exited before listening");
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

type stats = { requests : int; batches : int; hits : int; misses : int; evictions : int }

let parse_stats log =
  let ic = open_in log in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan found =
        match input_line ic with
        | line -> (
            match
              Scanf.sscanf line
                "lph-serve: stopped after %d requests in %d batches (%d hits, %d misses, %d evictions"
                (fun requests batches hits misses evictions -> { requests; batches; hits; misses; evictions })
            with
            | s -> scan (Some s)
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan found)
        | exception End_of_file -> found
      in
      scan None)

let stop d =
  if d.alive then begin
    d.alive <- false;
    Unix.kill d.pid Sys.sigint;
    ignore (Unix.waitpid [] d.pid)
  end;
  live := List.filter (fun d' -> d' != d) !live;
  let s = parse_stats d.log in
  (try Sys.remove d.log with Sys_error _ -> ());
  match s with Some s -> s | None -> failwith "daemon printed no stats line"

(* ---- one request on a raw connection --------------------------------- *)

type timing = {
  rtt_ns : int64;
  encode_ns : int64;
  decode_ns : int64;
  frame_bytes : int;
}

let rec write_all fd s pos len =
  if len > 0 then
    let n = try Unix.write_substring fd s pos len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd s (pos + n) (len - n)

(* The same calls {!Lph_core.Serve_client.request} makes (frame, write,
   read a frame, parse), spelled out so the codec can be timed apart
   from the round trip. *)
let roundtrip fd req =
  let t0 = Clock.now_ns () in
  let frame = P.frame ~wire:Codec.Packed P.request_codec req in
  let t1 = Clock.now_ns () in
  write_all fd frame 0 (String.length frame);
  match P.read_frame fd with
  | None -> failwith "daemon closed the connection"
  | Some (wire, payload) ->
      let t2 = Clock.now_ns () in
      let resp = P.parse ~wire P.response_codec payload in
      let t3 = Clock.now_ns () in
      ( resp,
        {
          rtt_ns = Int64.sub t3 t0;
          encode_ns = Int64.sub t1 t0;
          decode_ns = Int64.sub t3 t2;
          frame_bytes = String.length frame + 5 + String.length payload;
        } )
