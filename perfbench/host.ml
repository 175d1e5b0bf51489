(* Host diagnostics printed beside each run's metrics.  They explain
   spread; no run is dropped or re-weighted by them. *)

let read_lines path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> String.split_on_char '\n' s
  | exception Sys_error _ -> []

(* cumulative steal time of all CPUs, in seconds (USER_HZ = 100) *)
let steal_s () =
  match read_lines "/proc/stat" with
  | first :: _ when String.length first > 4 && String.sub first 0 4 = "cpu " -> (
    let fields =
      String.split_on_char ' ' first |> List.filter (fun f -> f <> "") |> List.tl
    in
    match List.nth_opt fields 7 with
    | Some v -> ( match float_of_string_opt v with Some t -> t /. 100. | None -> nan)
    | None -> nan)
  | _ -> nan

(* a /proc/self/status field in kB, as MB *)
let status_mb field =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ k; v ] when k = field -> (
        match String.split_on_char ' ' (String.trim v) with
        | n :: _ -> Option.map (fun kb -> kb /. 1024.) (float_of_string_opt n)
        | [] -> None)
      | _ -> None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:nan

let peak_rss_mb () = status_mb "VmHWM"

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
