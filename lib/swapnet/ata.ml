module Arch = Qcr_arch.Arch

(* Both memo tables are keyed by architecture name and shared across
   domains (the portfolio compiler races arms in parallel).  The lock
   only guards table access, never the schedule construction itself:
   [region_schedule] re-enters [schedule] for the sub-device and OCaml
   mutexes are not reentrant.  Racing domains may build the same
   schedule twice; [Hashtbl.replace] keeps the table consistent. *)
let cache_lock = Mutex.create ()

let locked f =
  Mutex.lock cache_lock;
  let r = f () in
  Mutex.unlock cache_lock;
  r

let cache : (string, Schedule.t) Hashtbl.t = Hashtbl.create 8

let build arch =
  match Arch.kind arch with
  | Arch.Line -> Linear.pattern (Arch.long_path arch)
  | Arch.Grid -> Two_level.grid_merged arch
  | Arch.Grid3d | Arch.Sycamore | Arch.Hexagon -> Two_level.unified arch
  | Arch.Heavy_hex | Arch.Custom -> Heavyhex.pattern arch

let schedule arch =
  let key = Arch.name arch in
  match locked (fun () -> Hashtbl.find_opt cache key) with
  | Some s -> s
  | None ->
      let s = build arch in
      locked (fun () -> Hashtbl.replace cache key s);
      s

let remap_schedule f s =
  List.map
    (List.map (function
      | Schedule.Swap (p, q) -> Schedule.Swap (f p, f q)
      | Schedule.Touch (p, q) -> Schedule.Touch (f p, f q)))
    s

let region_cache : (string, Schedule.t * int list) Hashtbl.t = Hashtbl.create 8

(* Bounding box of the given qubits in lattice coordinates, aligned so the
   sub-lattice has the same local edge rules as the full one. *)
let bounding_box arch qubits =
  let coords = Arch.coords arch in
  let r0 = ref max_int and r1 = ref min_int and c0 = ref max_int and c1 = ref min_int in
  List.iter
    (fun q ->
      let r, c = coords.(q) in
      let r = int_of_float r and c = int_of_float c in
      r0 := min !r0 r;
      r1 := max !r1 r;
      c0 := min !c0 c;
      c1 := max !c1 c)
    qubits;
  (!r0, !r1, !c0, !c1)

let region_schedule arch qubits =
  match (Arch.kind arch, qubits) with
  | (Arch.Line | Arch.Grid3d | Arch.Heavy_hex | Arch.Custom), _ | _, [] -> None
  | (Arch.Grid | Arch.Sycamore | Arch.Hexagon), _ -> begin
      let units = Arch.units arch in
      let unit_count = Array.length units in
      let unit_len = if unit_count = 0 then 0 else Array.length units.(0) in
      if unit_count = 0 then None
      else begin
        let r0, r1, c0, c1 = bounding_box arch qubits in
        (* Units are rows for grid/Sycamore and columns for hexagon; in the
           coords convention rows are the first coordinate for all three,
           so hexagon unit index = column. *)
        let u0, u1, k0, k1 =
          match Arch.kind arch with
          | Arch.Hexagon -> (c0, c1, r0, r1)
          | _ -> (r0, r1, c0, c1)
        in
        (* Alignment: Sycamore diagonals flip with row parity, hexagon
           horizontal links depend on r + c parity; keep parities intact by
           extending the box downward/leftward.  At the device's edge the
           extension can fail to restore the hexagon parity (k0 clamped at
           0, or shifted to make the sub-column even); such a box is
           refused below, so the caller falls back to the full schedule. *)
        let u0, k0 =
          match Arch.kind arch with
          | Arch.Sycamore -> ((u0 / 2) * 2, k0)
          | Arch.Hexagon -> (u0, if (k0 + u0) mod 2 = 0 then k0 else max 0 (k0 - 1))
          | _ -> (u0, k0)
        in
        (* Hexagon sub-columns must have even length. *)
        let k1 =
          match Arch.kind arch with
          | Arch.Hexagon -> if (k1 - k0 + 1) mod 2 = 0 then k1 else min (unit_len - 1) (k1 + 1)
          | _ -> k1
        in
        let k0 =
          match Arch.kind arch with
          | Arch.Hexagon -> if (k1 - k0 + 1) mod 2 = 0 then k0 else max 0 (k0 - 1)
          | _ -> k0
        in
        let su = u1 - u0 + 1 and sk = k1 - k0 + 1 in
        if su = unit_count && sk = unit_len then None (* whole device: no gain *)
        else begin
          let key = Printf.sprintf "%s[%d-%d,%d-%d]" (Arch.name arch) u0 u1 k0 k1 in
          match locked (fun () -> Hashtbl.find_opt region_cache key) with
          | Some result -> Some result
          | None -> begin
              let sub =
                match Arch.kind arch with
                | Arch.Grid -> Some (Arch.grid ~rows:su ~cols:sk)
                | Arch.Sycamore when su >= 2 -> Some (Arch.sycamore ~rows:su ~cols:sk)
                | Arch.Hexagon when sk >= 2 && sk mod 2 = 0 && (k0 + u0) mod 2 = 0 ->
                    Some (Arch.hexagon ~rows:sk ~cols:su)
                | _ -> None
              in
              match sub with
              | None -> None
              | Some sub_arch -> begin
                  (* Map sub-device ids back to physical ids of the region.
                     All three lattices index qubits as r * cols + c. *)
                  let remap =
                    match Arch.kind arch with
                    | Arch.Hexagon ->
                        fun i ->
                          let r_sub = i / su and c_sub = i mod su in
                          ((r_sub + k0) * unit_count) + (c_sub + u0)
                    | _ ->
                        fun i ->
                          let r_sub = i / sk and c_sub = i mod sk in
                          ((r_sub + u0) * unit_len) + (c_sub + k0)
                  in
                  let sched = remap_schedule remap (schedule sub_arch) in
                  let members =
                    List.init (Arch.qubit_count sub_arch) remap |> List.sort compare
                  in
                  let result = (sched, members) in
                  locked (fun () -> Hashtbl.replace region_cache key result);
                  Some result
                end
            end
        end
      end
    end
