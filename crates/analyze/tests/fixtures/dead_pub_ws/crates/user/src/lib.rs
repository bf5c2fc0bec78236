pub fn call() -> u32 {
    demo::called_by_library() + demo::reexported_used() + demo::USED_LIMIT
}
