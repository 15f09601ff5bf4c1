(* The global collection switch.  Span collection is off by default so that
   instrumented hot paths cost a single atomic load when nobody is looking;
   counters stay live regardless (they are plain atomic increments and the
   paper-figure timings budget for them). *)

let state = Atomic.make false

let enable () = Atomic.set state true
let disable () = Atomic.set state false
let enabled () = Atomic.get state
