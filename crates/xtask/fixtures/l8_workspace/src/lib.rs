//! The fixture's root package: it exists to own `examples/`.
