//! Typed identifiers for the storage schema.
//!
//! Each entity family gets its own newtype over `u64` so identifiers
//! cannot be confused across tables at compile time.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u64);

        impl $name {
            /// The raw numeric value.
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies a stored image (or video key frame).
    ImageId,
    "img-"
);
define_id!(
    /// Identifies a platform user (government, researcher, community,
    /// academic).
    UserId,
    "user-"
);
define_id!(
    /// Identifies a content-classification scheme (e.g. street
    /// cleanliness, graffiti, road damage).
    ClassificationId,
    "cls-"
);
define_id!(
    /// Identifies one annotation row.
    AnnotationId,
    "ann-"
);
define_id!(
    /// Identifies a registered ML model.
    ModelId,
    "model-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(ImageId(7).to_string(), "img-7");
        assert_eq!(UserId(1).to_string(), "user-1");
        assert_eq!(ClassificationId(2).to_string(), "cls-2");
        assert_eq!(AnnotationId(3).to_string(), "ann-3");
        assert_eq!(ModelId(4).to_string(), "model-4");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ImageId(1));
        set.insert(ImageId(1));
        set.insert(ImageId(2));
        assert_eq!(set.len(), 2);
        assert!(ImageId(1) < ImageId(2));
        assert_eq!(ImageId(9).raw(), 9);
    }
}
