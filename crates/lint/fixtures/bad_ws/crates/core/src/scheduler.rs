//! Fixture: hot-path module; panics and literal indexing are banned here.

pub fn dispatch(q: &[u32]) -> u32 {
    let first = q.first().unwrap();
    let second = q.get(1).expect("second");
    let third = q[2];
    let fourth = q[3]; // lint:allow(hot-path-index)
    let ok = q.first().copied().unwrap_or(0);
    first + second + third + fourth + ok
}

pub fn stubs() {
    panic!("boom");
    todo!();
}

pub fn justified(v: Option<u32>) -> u32 {
    v.expect("validated at construction") // lint:allow(hot-path-panic)
}
