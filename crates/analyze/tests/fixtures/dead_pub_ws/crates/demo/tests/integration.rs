#[test]
fn integration() {
    assert_eq!(demo::only_integration_tested(), 3);
    assert_eq!(demo::UNUSED_LIMIT, 11);
}
