//! R6 fixture: an integration suite, placed at `tests/demo.rs`. Test code
//! keeps nothing alive.

#[test]
fn integration() {
    assert_eq!(demo::only_integration_tested(), 2);
    assert_eq!(demo::reexported_only(), 3);
}
