type t =
  | H of int
  | X of int
  | Rx of int * float
  | Rz of int * float
  | Cx of int * int
  | Cz of int * int
  | Cphase of int * int * float
  | Rzz of int * int * float
  | Swap of int * int
  | Swap_interact of int * int * float
  | Swap_rzz of int * int * float
  | Measure of int
  | Barrier

let qubits = function
  | H q | X q | Rx (q, _) | Rz (q, _) | Measure q -> [ q ]
  | Cx (a, b) | Cz (a, b) | Cphase (a, b, _) | Rzz (a, b, _) | Swap (a, b)
  | Swap_interact (a, b, _) | Swap_rzz (a, b, _) ->
      [ a; b ]
  | Barrier -> []

let is_two_qubit = function
  | Cx _ | Cz _ | Cphase _ | Rzz _ | Swap _ | Swap_interact _ | Swap_rzz _ -> true
  | H _ | X _ | Rx _ | Rz _ | Measure _ | Barrier -> false

let cx_cost = function
  | Cx _ | Cz _ -> 1
  | Cphase _ | Rzz _ -> 2
  | Swap _ | Swap_interact _ | Swap_rzz _ -> 3
  | H _ | X _ | Rx _ | Rz _ | Measure _ | Barrier -> 0

let map_qubits f = function
  | H q -> H (f q)
  | X q -> X (f q)
  | Rx (q, t) -> Rx (f q, t)
  | Rz (q, t) -> Rz (f q, t)
  | Cx (a, b) -> Cx (f a, f b)
  | Cz (a, b) -> Cz (f a, f b)
  | Cphase (a, b, t) -> Cphase (f a, f b, t)
  | Rzz (a, b, t) -> Rzz (f a, f b, t)
  | Swap (a, b) -> Swap (f a, f b)
  | Swap_interact (a, b, t) -> Swap_interact (f a, f b, t)
  | Swap_rzz (a, b, t) -> Swap_rzz (f a, f b, t)
  | Measure q -> Measure (f q)
  | Barrier -> Barrier

let equal a b = a = b

(* Rendered with [Printf] rather than through a [Format] buffer: the
   service digests every gate of every reply through this function, and
   [Printf] is about twice as fast for the same bytes. *)
let to_string = function
  | H q -> Printf.sprintf "h q%d" q
  | X q -> Printf.sprintf "x q%d" q
  | Rx (q, t) -> Printf.sprintf "rx(%g) q%d" t q
  | Rz (q, t) -> Printf.sprintf "rz(%g) q%d" t q
  | Cx (a, b) -> Printf.sprintf "cx q%d,q%d" a b
  | Cz (a, b) -> Printf.sprintf "cz q%d,q%d" a b
  | Cphase (a, b, t) -> Printf.sprintf "cp(%g) q%d,q%d" t a b
  | Rzz (a, b, t) -> Printf.sprintf "rzz(%g) q%d,q%d" t a b
  | Swap (a, b) -> Printf.sprintf "swap q%d,q%d" a b
  | Swap_interact (a, b, t) -> Printf.sprintf "swap+cp(%g) q%d,q%d" t a b
  | Swap_rzz (a, b, t) -> Printf.sprintf "swap+rzz(%g) q%d,q%d" t a b
  | Measure q -> Printf.sprintf "measure q%d" q
  | Barrier -> "barrier"

let pp fmt g = Format.pp_print_string fmt (to_string g)
