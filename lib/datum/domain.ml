type t = Int | String | Bool | Decimal | Enum of string list
[@@deriving eq, show { with_path = false }]

let subsumes ~wide ~narrow =
  match wide, narrow with
  | Decimal, Int -> true
  | String, Enum _ -> true
  | Enum wide_values, Enum narrow_values ->
      List.for_all (fun v -> List.mem v wide_values) narrow_values
  | (Int | String | Bool | Decimal | Enum _), _ -> equal wide narrow
