//! Configuration for the synthetic corpus generator.
//!
//! The defaults are tuned so that the generated corpus reproduces, at
//! laptop scale, the statistical properties the paper's evaluation depends
//! on — see DESIGN.md "Substitutions" for the full mapping.

/// World-model parameters: the ground truth the web imperfectly reports.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of entity types (paper: 1.1K; scaled down).
    pub n_types: usize,
    /// Number of predicates (paper: 4.5K; scaled down).
    pub n_predicates: usize,
    /// Number of entities (paper: 43M; scaled down).
    pub n_entities: usize,
    /// Fraction of predicates that are functional (Table 3: 28%).
    pub functional_fraction: f64,
    /// Zipf exponent for entity popularity (how often entities appear on
    /// pages; drives the heavy-head skew of Table 1).
    pub entity_zipf_exponent: f64,
    /// Mean number of true values for a non-functional data item (most have
    /// 1–2; §3.2.1).
    pub mean_truths_nonfunctional: f64,
    /// Maximum number of true values for a non-functional item.
    pub max_truths: usize,
    /// Depth of the location-style value hierarchy (§5.4's
    /// `North America → USA → CA → San Francisco` chain has depth 4–5).
    pub hierarchy_depth: usize,
    /// Branching factor of the value hierarchy.
    pub hierarchy_branching: usize,
    /// Fraction of entity-valued predicates whose objects come from the
    /// hierarchy (e.g. birth place, location).
    pub hierarchical_predicate_fraction: f64,
    /// Fraction of data items each entity actually has facts for.
    pub item_density: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            n_types: 12,
            n_predicates: 64,
            // Sparse-tail regime: most data items are claimed on one or two
            // pages, so a large share of unique triples are singletons —
            // the paper's reality (1.6B unique triples, most with tiny
            // support) and the precondition for its Fig. 9 ordering, where
            // VOTE's P = 1 singletons make it the worst-calibrated method.
            n_entities: 30_000,
            functional_fraction: 0.28,
            entity_zipf_exponent: 1.05,
            mean_truths_nonfunctional: 1.7,
            max_truths: 8,
            hierarchy_depth: 4,
            hierarchy_branching: 6,
            hierarchical_predicate_fraction: 0.15,
            item_density: 0.6,
        }
    }
}

/// Freebase-style gold-KB parameters (§3.2.1).
#[derive(Debug, Clone)]
pub struct GoldConfig {
    /// Probability that a data item is known to the gold KB (paper: 40% of
    /// extracted triples have gold labels).
    pub item_coverage: f64,
    /// For known non-functional items, probability that each additional
    /// true value beyond the first is recorded. Missing values are the
    /// paper's main LCWA artifact (5 of 20 sampled "false positives" were
    /// actually correct values absent from Freebase).
    pub truth_coverage: f64,
    /// Probability that the gold KB stores an outright wrong value for an
    /// item (paper: 1 of 20 sampled FPs was a Freebase error).
    pub wrong_value_rate: f64,
    /// For hierarchy-valued items, probability the gold KB stores the
    /// *leaf* value only (so correct general values get labelled false).
    pub leaf_only_rate: f64,
}

impl Default for GoldConfig {
    fn default() -> Self {
        GoldConfig {
            item_coverage: 0.40,
            truth_coverage: 0.70,
            wrong_value_rate: 0.004,
            leaf_only_rate: 0.85,
        }
    }
}

/// Web-corpus parameters.
#[derive(Debug, Clone)]
pub struct WebConfig {
    /// Number of web sites.
    pub n_sites: usize,
    /// Number of web pages (paper: 1B+; scaled down).
    pub n_pages: usize,
    /// Zipf exponent for pages-per-site skew.
    pub site_zipf_exponent: f64,
    /// Mean number of fact claims per page (paper: half the pages
    /// contribute a single triple; the largest contribute 50K).
    pub mean_claims_per_page: f64,
    /// Maximum claims on a single page.
    pub max_claims_per_page: usize,
    /// Probability that a page claim is factually wrong *at the source*
    /// (the paper attributes only ~4% of errors to sources; most are
    /// extraction errors).
    pub source_error_rate: f64,
    /// Probability that a wrong source claim is drawn from the data item's
    /// shared "popular false value" instead of a fresh error — models
    /// copying / widespread misinformation between sources (§5.2).
    pub copied_error_rate: f64,
    /// Per-content-type weights for page sections, ordered
    /// `[TXT, DOM, TBL, ANO]`. A page can carry several sections; DOM
    /// dominates (Fig. 3: DOM 1280M, TXT 301M, ANO 145M, TBL 10M triples).
    pub section_weights: [f64; 4],
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            n_sites: 500,
            n_pages: 24_000,
            site_zipf_exponent: 1.2,
            mean_claims_per_page: 5.0,
            max_claims_per_page: 600,
            source_error_rate: 0.03,
            copied_error_rate: 0.5,
            section_weights: [0.55, 0.90, 0.06, 0.18],
        }
    }
}

/// Copying scenario: extractor pairs that replicate each other's output.
///
/// When `dependence > 0`, every odd-indexed extractor becomes a *copier*
/// of the extractor one index below it (TXT2 copies TXT1, DOM2 copies
/// DOM1, …). On each page both run on, the copier replicates each record
/// the source produced — triple, pattern, confidence, mistakes and all —
/// with probability `dependence`, instead of extracting the claim itself.
/// Copied records carry the copier's own provenance, so vote-counting
/// methods see them as independent corroboration (§5.2's copying
/// phenomenon — exactly what ACCU-family methods mis-model without copy
/// detection).
#[derive(Debug, Clone)]
pub struct CopyingConfig {
    /// Probability that a copier replicates a source record instead of
    /// doing its own extraction. `0.0` disables the scenario.
    pub dependence: f64,
}

impl Default for CopyingConfig {
    fn default() -> Self {
        CopyingConfig { dependence: 0.0 }
    }
}

/// Source-spam scenario: many low-quality pages pushing one wrong voice.
///
/// `n_pages` spam pages are appended after the organic web, spread
/// round-robin over `n_sites` fresh (General-class) sites. Each page
/// carries `claims_per_page` DOM claims cycling through `n_items`
/// deterministically chosen target items; every claim about an item
/// asserts the *same* wrong value (the item's popular false value when
/// one was minted, a fresh wrong value otherwise), flagged as a source
/// error.
#[derive(Debug, Clone)]
pub struct SpamConfig {
    /// Number of spam pages to append. `0` disables the scenario.
    pub n_pages: usize,
    /// Number of target items the spam campaign pushes values for.
    pub n_items: usize,
    /// Claims per spam page.
    pub claims_per_page: usize,
    /// Number of fresh sites the spam pages spread across.
    pub n_sites: usize,
}

impl Default for SpamConfig {
    fn default() -> Self {
        SpamConfig {
            n_pages: 0,
            n_items: 50,
            claims_per_page: 4,
            n_sites: 8,
        }
    }
}

/// Temporal-drift scenario: truth flips mid-corpus.
///
/// A `fraction` of data items (chosen deterministically by hash) are
/// *drifted*: the world holds their current truth, but every page whose
/// id falls before `position × n_pages` claims a stale pre-flip value
/// instead (flagged as a source error — the page is out of date). Early
/// and late pages therefore disagree, and the stale claims are faithful
/// extractions of source-wrong content (Fig. 17's LCWA-artifact shape).
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Fraction of data items whose truth flipped. `0.0` disables the
    /// scenario.
    pub fraction: f64,
    /// Position of the flip within the page stream (0.0–1.0): pages with
    /// id below `position × n_pages` claim the stale value.
    pub position: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            fraction: 0.0,
            position: 0.5,
        }
    }
}

/// Hard-linkage scenario: an inflated confusable-entity surface.
///
/// `confusable_ring` controls the size of the confusable groups built
/// into the world: the default 2 pairs entities up symmetrically; larger
/// rings give every entity a confusable partner and chain the mistakes
/// (a → b → c → a), multiplying the distinct wrong values linkage errors
/// can land on. `error_boost` additionally scales every extractor's
/// entity- and predicate-linkage error weights.
#[derive(Debug, Clone)]
pub struct LinkageConfig {
    /// Confusable group size (≥ 2). The default 2 is the honest world's
    /// symmetric pairing.
    pub confusable_ring: usize,
    /// Multiplier on the extractors' linkage error-profile weights
    /// (`1.0` = unchanged).
    pub error_boost: f64,
}

impl Default for LinkageConfig {
    fn default() -> Self {
        LinkageConfig {
            confusable_ring: 2,
            error_boost: 1.0,
        }
    }
}

/// Hostile-corpus scenario knobs. All defaults are no-ops: a default
/// `ScenarioConfig` takes exactly the honest generator's code paths and
/// produces byte-identical corpora (pinned by the
/// `scenario_defaults_preserve_default_corpus` regression test).
#[derive(Debug, Clone, Default)]
pub struct ScenarioConfig {
    /// Correlated (copying) extractors.
    pub copying: CopyingConfig,
    /// Source spam.
    pub spam: SpamConfig,
    /// Temporal drift.
    pub drift: DriftConfig,
    /// Hard linkage.
    pub linkage: LinkageConfig,
}

impl ScenarioConfig {
    /// True when any scenario is active (any knob off its no-op default).
    pub fn any_active(&self) -> bool {
        self.copying.dependence > 0.0
            || self.spam.n_pages > 0
            || self.drift.fraction > 0.0
            || self.linkage.confusable_ring > 2
            || self.linkage.error_boost > 1.0
    }
}

/// Top-level generator configuration.
#[derive(Debug, Clone, Default)]
pub struct SynthConfig {
    /// World-model parameters.
    pub world: WorldConfig,
    /// Gold-KB parameters.
    pub gold: GoldConfig,
    /// Web-corpus parameters.
    pub web: WebConfig,
    /// Hostile-corpus scenario knobs (all no-ops by default).
    pub scenarios: ScenarioConfig,
}

impl SynthConfig {
    /// Tiny corpus for unit tests (hundreds of extractions).
    pub fn tiny() -> Self {
        SynthConfig {
            world: WorldConfig {
                n_types: 4,
                n_predicates: 12,
                n_entities: 200,
                ..Default::default()
            },
            gold: GoldConfig::default(),
            web: WebConfig {
                n_sites: 20,
                n_pages: 300,
                mean_claims_per_page: 5.0,
                ..Default::default()
            },
            scenarios: ScenarioConfig::default(),
        }
    }

    /// Small corpus for integration tests and examples (~10⁵ extractions,
    /// generates in well under a second).
    pub fn small() -> Self {
        SynthConfig {
            world: WorldConfig {
                n_types: 8,
                n_predicates: 32,
                n_entities: 1_500,
                ..Default::default()
            },
            gold: GoldConfig::default(),
            web: WebConfig {
                n_sites: 120,
                n_pages: 5_000,
                ..Default::default()
            },
            scenarios: ScenarioConfig::default(),
        }
    }

    /// The default experiment scale used by the `repro` harness
    /// (~2.5×10⁵ extraction records).
    pub fn paper() -> Self {
        SynthConfig::default()
    }

    /// Large corpus for scaling runs.
    pub fn large() -> Self {
        SynthConfig {
            world: WorldConfig {
                n_types: 16,
                n_predicates: 96,
                n_entities: 80_000,
                ..Default::default()
            },
            gold: GoldConfig::default(),
            web: WebConfig {
                n_sites: 2_000,
                n_pages: 100_000,
                ..Default::default()
            },
            scenarios: ScenarioConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_shape() {
        let c = SynthConfig::default();
        assert!((c.world.functional_fraction - 0.28).abs() < 1e-9);
        assert!((c.gold.item_coverage - 0.40).abs() < 1e-9);
        // DOM must dominate the section mix.
        let w = c.web.section_weights;
        assert!(w[1] > w[0] && w[1] > w[2] && w[1] > w[3]);
    }

    #[test]
    fn presets_are_ordered_by_scale() {
        let tiny = SynthConfig::tiny();
        let small = SynthConfig::small();
        let paper = SynthConfig::paper();
        let large = SynthConfig::large();
        assert!(tiny.web.n_pages < small.web.n_pages);
        assert!(small.web.n_pages < paper.web.n_pages);
        assert!(paper.web.n_pages < large.web.n_pages);
    }

    #[test]
    fn config_debug_lists_fields() {
        let c = SynthConfig::default();
        let dbg = format!("{c:?}");
        assert!(dbg.contains("n_pages"));
        assert!(dbg.contains("functional_fraction"));
    }
}
