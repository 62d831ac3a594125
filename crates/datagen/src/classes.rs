//! The street-cleanliness label vocabulary.

/// The five LASAN cleanliness classes of the paper's Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CleanlinessClass {
    /// Abandoned furniture or other single large object.
    BulkyItem,
    /// Scattered trash bags and debris.
    IllegalDumping,
    /// Homeless encampment (tents).
    Encampment,
    /// Overgrown vegetation encroaching on the walkway.
    OvergrownVegetation,
    /// Nothing to report.
    Clean,
}

impl CleanlinessClass {
    /// All classes in canonical (label-index) order.
    pub const ALL: [CleanlinessClass; 5] = [
        CleanlinessClass::BulkyItem,
        CleanlinessClass::IllegalDumping,
        CleanlinessClass::Encampment,
        CleanlinessClass::OvergrownVegetation,
        CleanlinessClass::Clean,
    ];

    /// Canonical label index (matches [`Self::ALL`]).
    #[expect(
        clippy::expect_used,
        reason = "ALL enumerates every variant; the index round-trip is covered by tests"
    )]
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class in ALL")
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CleanlinessClass::BulkyItem => "Bulky Item",
            CleanlinessClass::IllegalDumping => "Illegal Dumping",
            CleanlinessClass::Encampment => "Encampment",
            CleanlinessClass::OvergrownVegetation => "Overgrown Vegetation",
            CleanlinessClass::Clean => "Clean",
        }
    }

    /// Keywords an uploader might attach to an image of this class.
    pub fn keyword_pool(self) -> &'static [&'static str] {
        match self {
            CleanlinessClass::BulkyItem => &["couch", "furniture", "mattress", "abandoned"],
            CleanlinessClass::IllegalDumping => &["trash", "dumping", "debris", "bags"],
            CleanlinessClass::Encampment => &["tent", "encampment", "homeless"],
            CleanlinessClass::OvergrownVegetation => &["weeds", "vegetation", "overgrown"],
            CleanlinessClass::Clean => &["clean", "clear"],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, c) in CleanlinessClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(CleanlinessClass::Encampment.label(), "Encampment");
        assert_eq!(
            CleanlinessClass::OvergrownVegetation.label(),
            "Overgrown Vegetation"
        );
    }

    #[test]
    fn keyword_pools_nonempty_and_distinctive() {
        for c in CleanlinessClass::ALL {
            assert!(!c.keyword_pool().is_empty());
        }
        assert!(CleanlinessClass::Encampment
            .keyword_pool()
            .contains(&"tent"));
    }
}
