//! Fixture: the span reconstructor must enumerate every TraceEvent variant.

pub fn classify(kind: &str) -> u32 {
    match kind {
        "req_served" => 1,
        _ => 0,
    }
}

pub fn classify_allowed(kind: &str) -> u32 {
    match kind {
        "req_served" => 1,
        _ => 0, // lint:allow(trace-kind-exhaustive)
    }
}

pub fn consume(event: TraceEvent) -> u32 {
    match event {
        TraceEvent::Emitted => 1,
        TraceEvent::NeverEmitted => 2,
        TraceEvent::RpnCrash => 3,
        TraceEvent::PartitionStart => 4,
    }
}
