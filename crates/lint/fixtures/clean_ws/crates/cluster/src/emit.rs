//! Clean fixture: every TraceEvent variant has a production emit site.

pub fn emit(t: &Tracer) {
    t.emit(TraceEvent::Served);
    t.emit(TraceEvent::RpnCrash);
}
