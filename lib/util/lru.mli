(** Fixed-capacity LRU map with string keys.

    [find] and [add] are O(1): a hash table holds the entries and an
    intrusive doubly-linked list tracks recency.  When an [add] would
    exceed the capacity the least-recently-used entry is evicted.
    [find] counts as a use; [mem] and [peek] do not.  Capacity 0 is a
    degenerate cache that stores nothing (every [add] is a no-op), which
    lets callers disable caching without a separate code path.

    Not thread-safe: a cache belongs to one domain at a time (the
    compile service touches its reply cache and route table only from
    the submitting domain). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 0]. *)

val capacity : 'a t -> int

val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup that promotes the entry to most-recently-used. *)

val peek : 'a t -> string -> 'a option
(** Lookup without promoting. *)

val mem : 'a t -> string -> bool

val add : 'a t -> string -> 'a -> unit
(** Insert or replace (either way the entry becomes most-recently-used),
    evicting the LRU entry if the cache is full. *)

val remove : 'a t -> string -> unit
(** No-op if absent. *)

val pop_lru : 'a t -> (string * 'a) option
(** Remove and return the least-recently-used entry; [None] when empty.
    Gives callers that track derived totals (entry bytes, eviction
    counts) a handle on what eviction discards. *)

val clear : 'a t -> unit

val fold : (string -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over entries from most- to least-recently-used. *)
