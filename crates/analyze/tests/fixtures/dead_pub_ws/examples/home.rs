fn main() {
    println!("{} {}", demo::Home.validate_token_at(), user::call());
}
