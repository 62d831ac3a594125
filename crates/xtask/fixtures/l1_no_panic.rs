//! Fixture: L1 no-panic violations. Clippy with the `cargo no-panic`
//! lints must exit nonzero on this file, three times over.

/// Panics when the option is empty — forbidden in library code.
pub fn take(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Panics with a message — also forbidden.
pub fn must(x: Option<u32>) -> u32 {
    x.expect("value required")
}

/// Unfinished code paths may not ship.
pub fn later() {
    todo!()
}

#[cfg(test)]
mod tests {
    // Test code is exempt: this unwrap must NOT be flagged.
    #[test]
    fn in_tests_unwrap_is_fine() {
        let v: Option<u8> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
