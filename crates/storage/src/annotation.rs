//! Content classifications and annotations.
//!
//! The schema distinguishes a *classification scheme* (a named labelling
//! task such as "street cleanliness" with its label vocabulary) from the
//! per-image *annotations* referencing those labels. An image may carry
//! annotations from several schemes simultaneously — the mechanism behind
//! the paper's translational-data story (cleanliness labels reused for
//! homeless counting; graffiti labels added later over the same images).

use crate::ids::{AnnotationId, ClassificationId, ImageId, ModelId, UserId};

/// A named labelling task with a fixed label vocabulary
/// (`Image_Content_Classification` + `..._Types` in Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassificationScheme {
    /// Scheme identifier.
    pub id: ClassificationId,
    /// Human-readable name, e.g. `"street-cleanliness"`.
    pub name: String,
    /// Ordered label vocabulary; annotation label indices point here.
    pub labels: Vec<String>,
}

impl ClassificationScheme {
    /// Index of a label by name.
    pub fn label_index(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }
}

/// Who (or what) produced an annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationSource {
    /// A human label (trusted; confidence 1.0 by convention).
    Human(UserId),
    /// A machine label with the producing model.
    Machine(ModelId),
}

/// An axis-aligned pixel region inside an image, for part-of-image labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionOfInterest {
    /// Left edge in pixels.
    pub x: usize,
    /// Top edge in pixels.
    pub y: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

/// One annotation row (`Image_Content_Annotation`).
#[derive(Debug, Clone)]
pub struct Annotation {
    /// Row identifier.
    pub id: AnnotationId,
    /// Annotated image.
    pub image: ImageId,
    /// Which classification scheme the label belongs to.
    pub classification: ClassificationId,
    /// Index into the scheme's label vocabulary.
    pub label: usize,
    /// Confidence in `[0, 1]`; human annotations use 1.0.
    pub confidence: f32,
    /// Provenance.
    pub source: AnnotationSource,
    /// Optional sub-image region; `None` labels the whole image.
    pub region: Option<RegionOfInterest>,
}

impl Annotation {
    /// Whether a human produced this annotation.
    pub fn is_human(&self) -> bool {
        matches!(self.source, AnnotationSource::Human(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_label_lookup() {
        let s = ClassificationScheme {
            id: ClassificationId(1),
            name: "street-cleanliness".into(),
            labels: vec![
                "bulky item".into(),
                "illegal dumping".into(),
                "clean".into(),
            ],
        };
        assert_eq!(s.label_index("illegal dumping"), Some(1));
        assert_eq!(s.label_index("graffiti"), None);
    }

    #[test]
    fn annotation_source_kinds() {
        let human = Annotation {
            id: AnnotationId(1),
            image: ImageId(1),
            classification: ClassificationId(1),
            label: 0,
            confidence: 1.0,
            source: AnnotationSource::Human(UserId(3)),
            region: None,
        };
        let machine = Annotation {
            id: AnnotationId(2),
            source: AnnotationSource::Machine(ModelId(5)),
            region: Some(RegionOfInterest {
                x: 0,
                y: 0,
                width: 10,
                height: 10,
            }),
            ..human.clone()
        };
        assert!(human.is_human());
        assert!(!machine.is_human());
        assert_eq!(machine.region.unwrap().width, 10);
    }
}
