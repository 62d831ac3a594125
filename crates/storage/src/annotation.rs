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
    /// Creates a scheme; the vocabulary must be non-empty and unique.
    pub fn new(id: ClassificationId, name: impl Into<String>, labels: Vec<String>) -> Self {
        assert!(!labels.is_empty(), "empty label vocabulary");
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "duplicate labels");
        Self {
            id,
            name: name.into(),
            labels,
        }
    }

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
#[derive(Debug, Clone, PartialEq)]
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
    /// Creates an annotation, validating the confidence range.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: AnnotationId,
        image: ImageId,
        classification: ClassificationId,
        label: usize,
        confidence: f32,
        source: AnnotationSource,
        region: Option<RegionOfInterest>,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&confidence),
            "confidence out of range: {confidence}"
        );
        Self {
            id,
            image,
            classification,
            label,
            confidence,
            source,
            region,
        }
    }

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
        let s = ClassificationScheme::new(
            ClassificationId(1),
            "street-cleanliness",
            vec![
                "bulky item".into(),
                "illegal dumping".into(),
                "clean".into(),
            ],
        );
        assert_eq!(s.label_index("illegal dumping"), Some(1));
        assert_eq!(s.label_index("graffiti"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate labels")]
    fn duplicate_labels_rejected() {
        let _ = ClassificationScheme::new(ClassificationId(1), "x", vec!["a".into(), "a".into()]);
    }

    #[test]
    fn annotation_source_kinds() {
        let human = Annotation::new(
            AnnotationId(1),
            ImageId(1),
            ClassificationId(1),
            0,
            1.0,
            AnnotationSource::Human(UserId(3)),
            None,
        );
        let machine = Annotation::new(
            AnnotationId(2),
            ImageId(1),
            ClassificationId(1),
            2,
            0.83,
            AnnotationSource::Machine(ModelId(5)),
            Some(RegionOfInterest {
                x: 0,
                y: 0,
                width: 10,
                height: 10,
            }),
        );
        assert!(human.is_human());
        assert!(!machine.is_human());
        assert_eq!(machine.region.unwrap().width, 10);
    }

    #[test]
    #[should_panic(expected = "confidence out of range")]
    fn bad_confidence_rejected() {
        let _ = Annotation::new(
            AnnotationId(1),
            ImageId(1),
            ClassificationId(1),
            0,
            1.5,
            AnnotationSource::Human(UserId(1)),
            None,
        );
    }
}
