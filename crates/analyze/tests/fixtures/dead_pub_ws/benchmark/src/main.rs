fn main() {
    println!("{}", fixture_benchmark::run());
}
