//! A test-only crate: its calls keep nothing alive.

pub fn inject() -> u32 {
    demo::only_chaos()
}
