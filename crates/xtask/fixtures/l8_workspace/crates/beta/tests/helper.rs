//! An integration test: not shipped code, so its call reaches nothing.

#[test]
fn helper_is_callable() {
    assert_eq!(tvdp_alpha::helper(), 0);
}
