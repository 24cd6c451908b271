(* Hierarchical timing wheel (Varghese & Lauck), specialised for the
   simulator's event queue.

   Layout: 11 levels of 32 slots. A level-0 slot spans 2^10 ns
   (1.024 us); each higher level is 32x coarser, so level l spans
   2^(10+5l) ns per slot and the top level covers the whole of
   [Time_ns.t] (10 + 5*11 = 65 bits) — no separate overflow structure
   is needed.

   Ordering contract (property-tested against the reference binary
   heap): entries pop in (time, seq) order, where [seq] is the global
   insertion sequence — equal-time entries pop in insertion order.
   Wheel slots alone cannot provide that (a slot holds a 1 us band,
   unsorted), so entries whose level-0 tick has been reached by the
   cursor move into [near], a small binary min-heap keyed by (time,
   seq). [pop] only ever takes from [near]; every wheel entry has a
   strictly later tick than every near entry, so the near minimum is
   the global minimum.

   The cursor [cur] is the level-0 tick up to which slots have been
   drained. Advancing it is a bitmap scan: per-level 32-bit occupancy
   words let the refill step jump straight to the next nonempty slot
   (ctz) instead of stepping tick by tick. Climbing happens when the
   current level-1 slot's lap of level-0 ticks is exhausted: bits still
   set below level l are "spill" due within the next level-l slot, so
   the cursor steps exactly one slot at level l and the newly entered
   slot at every affected level re-scatters its entries downward.

   Arena lifecycle: fire-once entries inserted with [add] return no
   handle, so after they pop nothing can reference them — they go to a
   free list and are recycled by later [add]s, making the fire-once
   path allocation-free in steady state. [push] entries return their
   handle for [cancel] and are never recycled (a stale handle must not
   alias a reused entry). Cancellation is lazy: the entry is marked and
   dropped when its slot drains or it reaches the top of [near];
   [cancel] clears the stored value immediately so the closure is not
   retained for the remaining horizon. *)

let g0_bits = 10
let level_bits = 5
let slots_per_level = 32
let slot_mask = slots_per_level - 1
let levels = 11

let st_live = 0
let st_cancelled = 1
let st_spent = 2

type 'a entry = {
  mutable time : Time_ns.t;
  mutable seq : int;
  mutable value : 'a;
  mutable state : int;
  recyclable : bool;
}

type 'a handle = 'a entry

type 'a t = {
  dummy : 'a;
  dummy_entry : 'a entry;
  mutable cur : int;  (** level-0 tick: slots at ticks <= cur are drained *)
  bits : int array;  (** per-level slot-occupancy bitmaps *)
  mutable occ : int;  (** bitmap of levels with a nonzero [bits] word *)
  slots : 'a entry array array;  (** levels * 32 growable vectors *)
  slot_len : int array;
  mutable near : 'a entry array;  (** binary min-heap on (time, seq) *)
  mutable near_size : int;
  mutable free : 'a entry array;  (** recycled fire-once entries *)
  mutable free_len : int;
  mutable next_seq : int;
  mutable live : int;
}

let create ~dummy =
  let dummy_entry =
    { time = 0; seq = -1; value = dummy; state = st_spent; recyclable = false }
  in
  {
    dummy;
    dummy_entry;
    cur = 0;
    bits = Array.make levels 0;
    occ = 0;
    slots = Array.make (levels * slots_per_level) [||];
    slot_len = Array.make (levels * slots_per_level) 0;
    near = [||];
    near_size = 0;
    free = [||];
    free_len = 0;
    next_seq = 0;
    live = 0;
  }

let length t = t.live

let is_empty t = t.live = 0

(* ---- near heap ---- *)

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let near_push t e =
  let n = t.near_size in
  if n = Array.length t.near then begin
    let ncap = if n = 0 then 16 else 2 * n in
    let na = Array.make ncap e in
    Array.blit t.near 0 na 0 n;
    t.near <- na
  end;
  let a = t.near in
  a.(n) <- e;
  t.near_size <- n + 1;
  let i = ref n in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before a.(!i) a.(parent) then begin
      let tmp = a.(!i) in
      a.(!i) <- a.(parent);
      a.(parent) <- tmp;
      i := parent
    end
    else moving := false
  done

let near_pop_min t =
  let a = t.near in
  let e = a.(0) in
  let n = t.near_size - 1 in
  t.near_size <- n;
  if n > 0 then begin
    a.(0) <- a.(n);
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < n && before a.(l) a.(!smallest) then smallest := l;
      if r < n && before a.(r) a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!smallest);
        a.(!smallest) <- tmp;
        i := !smallest
      end
      else moving := false
    done
  end;
  a.(n) <- t.dummy_entry;
  e

(* ---- slot vectors ---- *)

let slot_push t si e =
  let a = t.slots.(si) in
  let n = t.slot_len.(si) in
  if n = Array.length a then begin
    let ncap = if n = 0 then 4 else 2 * n in
    let na = Array.make ncap e in
    Array.blit a 0 na 0 n;
    t.slots.(si) <- na
  end
  else a.(n) <- e;
  t.slot_len.(si) <- n + 1

(* ---- placement ---- *)

(* Level of a tick delta >= 1: the l with delta in [32^l, 32^(l+1)). *)
let level_of delta =
  let l = ref 0 and d = ref delta in
  while !d >= slots_per_level do
    incr l;
    d := !d lsr level_bits
  done;
  !l

let place t e =
  let tick = e.time lsr g0_bits in
  if tick <= t.cur then near_push t e
  else begin
    let lvl = level_of (tick - t.cur) in
    let slot = (tick lsr (level_bits * lvl)) land slot_mask in
    slot_push t ((lvl lsl level_bits) lor slot) e;
    t.bits.(lvl) <- t.bits.(lvl) lor (1 lsl slot);
    t.occ <- t.occ lor (1 lsl lvl)
  end

(* ---- insertion ---- *)

let free_push t e =
  let n = t.free_len in
  if n = Array.length t.free then begin
    let ncap = if n = 0 then 16 else 2 * n in
    let na = Array.make ncap t.dummy_entry in
    Array.blit t.free 0 na 0 n;
    t.free <- na
  end;
  t.free.(n) <- e;
  t.free_len <- n + 1

let add t ~time value =
  if time < 0 then invalid_arg "Wheel.add: negative time";
  let e =
    if t.free_len > 0 then begin
      let n = t.free_len - 1 in
      t.free_len <- n;
      let e = t.free.(n) in
      t.free.(n) <- t.dummy_entry;
      e.time <- time;
      e.seq <- t.next_seq;
      e.value <- value;
      e.state <- st_live;
      e
    end
    else { time; seq = t.next_seq; value; state = st_live; recyclable = true }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  place t e

let push t ~time value =
  if time < 0 then invalid_arg "Wheel.push: negative time";
  let e = { time; seq = t.next_seq; value; state = st_live; recyclable = false } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  place t e;
  e

let cancel t e =
  if e.state = st_live then begin
    e.state <- st_cancelled;
    e.value <- t.dummy;
    t.live <- t.live - 1
  end

(* ---- cursor advance ---- *)

(* Count trailing zeros of a nonzero value < 2^32 (de Bruijn). *)
let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
     21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz x = ctz_table.(((x land -x) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* Move all live entries of slot [slot] at level [lvl] back through
   [place] under the (just-advanced) cursor. At level 0 every entry has
   tick = cur, so place puts them straight into [near]; at higher
   levels they fan out to lower levels. The occupancy bit is cleared
   before re-placing because an entry may legitimately return to this
   very slot (a full-lap-away tick). *)
let scatter t lvl slot =
  let si = (lvl lsl level_bits) lor slot in
  let a = t.slots.(si) in
  let n = t.slot_len.(si) in
  t.slot_len.(si) <- 0;
  t.bits.(lvl) <- t.bits.(lvl) land lnot (1 lsl slot);
  if t.bits.(lvl) = 0 then t.occ <- t.occ land lnot (1 lsl lvl);
  for i = 0 to n - 1 do
    let e = a.(i) in
    a.(i) <- t.dummy_entry;
    if e.state = st_live then place t e
  done

(* Jump the level-[lvl] cursor to [new_c], then scatter the newly
   entered slot at every level whose cursor digit changed, top-down —
   a higher slot may fan entries into the lower slot about to be
   scattered. *)
let advance t lvl new_c =
  let old = t.cur in
  let nc0 = new_c lsl (level_bits * lvl) in
  t.cur <- nc0;
  for m = levels - 1 downto 0 do
    let sh = level_bits * m in
    let ncm = nc0 lsr sh in
    if ncm <> old lsr sh then begin
      let s = ncm land slot_mask in
      if t.bits.(m) land (1 lsl s) <> 0 then scatter t m s
    end
  done

(* One step of cursor motion toward the next nonempty slot.
   Precondition: occ <> 0. May need several calls before [near] turns
   nonempty (a drained slot can be all-cancelled, or entries scatter to
   lower levels first); each call strictly advances [cur]. *)
let refill t =
  let off0 = t.cur land slot_mask in
  let ahead0 = (t.bits.(0) lsr off0) lsr 1 in
  if ahead0 <> 0 then begin
    let p = off0 + 1 + ctz ahead0 in
    t.cur <- t.cur + (p - off0);
    scatter t 0 p
  end
  else begin
    let rec climb lvl =
      if lvl >= levels then
        (* occ <> 0 guarantees some level below already matched. *)
        assert false
      else begin
        let c = t.cur lsr (level_bits * lvl) in
        if t.occ land ((1 lsl lvl) - 1) <> 0 then
          (* Spill below this level: everything still set at lower
             levels is due within the next level-[lvl] slot. *)
          advance t lvl (c + 1)
        else begin
          let ahead = (t.bits.(lvl) lsr (c land slot_mask)) lsr 1 in
          if ahead <> 0 then advance t lvl (c + 1 + ctz ahead)
          else climb (lvl + 1)
        end
      end
    in
    climb 1
  end

(* ---- extraction ---- *)

let take t e =
  e.state <- st_spent;
  t.live <- t.live - 1;
  let v = e.value in
  e.value <- t.dummy;
  if e.recyclable then free_push t e;
  Some (e.time, v)

let rec pop t =
  if t.near_size > 0 then begin
    let e = near_pop_min t in
    if e.state <> st_live then pop t else take t e
  end
  else if t.occ = 0 then None
  else begin
    refill t;
    pop t
  end

let rec pop_due t ~limit =
  if t.near_size > 0 then begin
    let e = t.near.(0) in
    if e.state <> st_live then begin
      ignore (near_pop_min t);
      pop_due t ~limit
    end
    else if e.time > limit then None
    else take t (near_pop_min t)
  end
  else if t.occ = 0 then None
  else if t.cur >= limit lsr g0_bits then
    (* Every wheel entry sits at a tick past the cursor, hence at a
       time >= (cur+1) * 2^10 > limit: nothing due — and the cursor is
       left untouched. *)
    None
  else begin
    refill t;
    pop_due t ~limit
  end

let rec peek_time t =
  if t.near_size > 0 then begin
    let e = t.near.(0) in
    if e.state <> st_live then begin
      ignore (near_pop_min t);
      peek_time t
    end
    else Some e.time
  end
  else if t.occ = 0 then None
  else begin
    refill t;
    peek_time t
  end
