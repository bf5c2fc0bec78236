pub fn run() -> u32 {
    demo::called_by_benchmark()
}
