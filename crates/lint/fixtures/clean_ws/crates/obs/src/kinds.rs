//! Clean fixture: the TraceEvent variant is both emitted and consumed.

pub enum TraceEvent {
    Served,
    RpnCrash,
}
