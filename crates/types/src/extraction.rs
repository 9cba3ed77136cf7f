//! Extraction records: the raw input of knowledge fusion.

use crate::provenance::Provenance;
use crate::triple::Triple;

/// One extracted `(triple, provenance)` observation, optionally carrying the
/// extractor-assigned confidence (§3.1.1: 99.5% of extracted triples have
/// one; §5.5 discusses how confidences differ in shape across extractors).
///
/// The corpus is a bag of these: the same triple typically appears many
/// times with different provenances, and the same provenance contributes
/// many triples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extraction {
    /// The extracted knowledge triple.
    pub triple: Triple,
    /// Where it came from.
    pub provenance: Provenance,
    /// Extractor-assigned confidence in `[0, 1]`, if the extractor provides
    /// one. **Not** calibrated — see Fig. 21.
    pub confidence: Option<f32>,
}

impl Extraction {
    /// Construct an extraction without a confidence score.
    pub fn new(triple: Triple, provenance: Provenance) -> Self {
        Extraction {
            triple,
            provenance,
            confidence: None,
        }
    }

    /// Construct an extraction with a confidence score.
    pub fn with_confidence(triple: Triple, provenance: Provenance, confidence: f32) -> Self {
        Extraction {
            triple,
            provenance,
            confidence: Some(confidence),
        }
    }
}

/// A batch of extractions, the unit handed to the fusion pipeline.
///
/// Thin wrapper over `Vec<Extraction>` with corpus-level convenience
/// accessors used by tests, examples and the statistics module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtractionBatch {
    /// The extraction records.
    pub records: Vec<Extraction>,
}

impl ExtractionBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing vector of records.
    pub fn from_records(records: Vec<Extraction>) -> Self {
        ExtractionBatch { records }
    }

    /// Append a record.
    pub fn push(&mut self, e: Extraction) {
        self.records.push(e);
    }

    /// Number of extraction records (with duplicates — the paper's "6.4B
    /// extracted triples" axis).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over records.
    pub fn iter(&self) -> std::slice::Iter<'_, Extraction> {
        self.records.iter()
    }

    /// Number of *unique* triples (the paper's "1.6B unique triples" axis).
    pub fn unique_triples(&self) -> usize {
        let mut set: crate::FxHashSet<Triple> = crate::FxHashSet::default();
        set.reserve(self.records.len());
        for e in &self.records {
            set.insert(e.triple);
        }
        set.len()
    }

    /// Number of unique data items.
    pub fn unique_data_items(&self) -> usize {
        let mut set: crate::FxHashSet<crate::DataItem> = crate::FxHashSet::default();
        set.reserve(self.records.len());
        for e in &self.records {
            set.insert(e.triple.data_item());
        }
        set.len()
    }
}

impl<'a> IntoIterator for &'a ExtractionBatch {
    type Item = &'a Extraction;
    type IntoIter = std::slice::Iter<'a, Extraction>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for ExtractionBatch {
    type Item = Extraction;
    type IntoIter = std::vec::IntoIter<Extraction>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl FromIterator<Extraction> for ExtractionBatch {
    fn from_iter<I: IntoIterator<Item = Extraction>>(iter: I) -> Self {
        ExtractionBatch {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::*;
    use crate::value::Value;

    fn ex(s: u32, p: u32, o: u32, page: u32) -> Extraction {
        Extraction::new(
            Triple::new(EntityId(s), PredicateId(p), Value::Entity(EntityId(o))),
            Provenance::new(ExtractorId(0), PageId(page), SiteId(0), PatternId::NONE),
        )
    }

    #[test]
    fn unique_counts_dedupe() {
        let batch = ExtractionBatch::from_records(vec![
            ex(1, 1, 1, 1),
            ex(1, 1, 1, 2), // same triple, different page
            ex(1, 1, 2, 1), // same item, different object
            ex(2, 1, 1, 1), // different item
        ]);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.unique_triples(), 3);
        assert_eq!(batch.unique_data_items(), 2);
    }

    #[test]
    fn empty_batch() {
        let batch = ExtractionBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.unique_triples(), 0);
        assert_eq!(batch.unique_data_items(), 0);
    }

    #[test]
    fn confidence_is_optional() {
        let t = ex(1, 1, 1, 1).triple;
        let p = ex(1, 1, 1, 1).provenance;
        assert_eq!(Extraction::new(t, p).confidence, None);
        assert_eq!(Extraction::with_confidence(t, p, 0.7).confidence, Some(0.7));
    }

    #[test]
    fn from_iterator_collects() {
        let batch: ExtractionBatch = (0..5).map(|i| ex(i, 0, 0, i)).collect();
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.unique_data_items(), 5);
    }
}
