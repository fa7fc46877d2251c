//! Clean fixture: the reconstructor consumes every variant explicitly.

pub fn consume(event: TraceEvent) -> u32 {
    match event {
        TraceEvent::Served => 1,
        TraceEvent::RpnCrash => 2,
    }
}
