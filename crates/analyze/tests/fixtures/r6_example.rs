//! R6 fixture: an example, placed at `examples/demo.rs`.

fn main() {
    println!("{}", demo::called_by_example());
}
