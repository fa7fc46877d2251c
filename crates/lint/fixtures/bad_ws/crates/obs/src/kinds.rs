//! Fixture: every TraceEvent variant needs an emit site and a consumer arm.

pub enum TraceEvent {
    Emitted,
    NeverEmitted,
    NeverConsumed,
    RpnCrash,
    PartitionStart,
}
