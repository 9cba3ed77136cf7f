//! The simulated web: sites, pages, and the fact claims pages carry.
//!
//! A page is a bag of *claims* — `(data item, value)` statements placed in
//! one of the four content-type sections of §3.1.2 (TXT, DOM, TBL, ANO).
//! Claims are what the sources *say*; extraction noise is layered on top by
//! the extractor models. Source-level errors (a page asserting a wrong
//! value) are injected here, including "popular" wrong values shared across
//! pages to model copying / widespread misinformation (§5.2).

use crate::config::{ScenarioConfig, WebConfig};
use crate::world::World;
use kf_types::{hash, DataItem, FxHashMap, PageId, SiteId, Triple, Value};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The four kinds of web content the paper extracts from (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentType {
    /// Free text (sentences, phrases).
    Txt,
    /// DOM trees (infoboxes, web lists, deep-web pages).
    Dom,
    /// Web tables with relational content.
    Tbl,
    /// Webmaster annotations (schema.org, microformats).
    Ano,
}

impl ContentType {
    /// All content types, in the paper's order.
    pub const ALL: [ContentType; 4] = [
        ContentType::Txt,
        ContentType::Dom,
        ContentType::Tbl,
        ContentType::Ano,
    ];

    /// Short label used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            ContentType::Txt => "TXT",
            ContentType::Dom => "DOM",
            ContentType::Tbl => "TBL",
            ContentType::Ano => "ANO",
        }
    }

    /// Dense index (0..4).
    pub fn index(self) -> usize {
        match self {
            ContentType::Txt => 0,
            ContentType::Dom => 1,
            ContentType::Tbl => 2,
            ContentType::Ano => 3,
        }
    }
}

/// One fact claim on a page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// The data item the claim is about.
    pub item: DataItem,
    /// The claimed value (possibly wrong at the source).
    pub value: Value,
    /// Which section of the page carries it.
    pub section: ContentType,
    /// Whether the source itself is wrong about this (before extraction).
    pub source_error: bool,
}

impl Claim {
    /// The triple the claim states.
    pub(crate) fn triple(&self) -> Triple {
        Triple::new(self.item.subject, self.item.predicate, self.value)
    }
}

/// One web page.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// Page id (== index into [`Web::pages`]).
    pub id: PageId,
    /// Site the page belongs to.
    pub site: SiteId,
    /// Claims carried by the page.
    pub claims: Vec<Claim>,
}

/// Site classes used to model extractor targeting (§3.1.3: TXT2–TXT4 run on
/// normal pages / newswire / Wikipedia respectively; DOM5 on Wikipedia).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// The single high-quality encyclopedia site (site 0).
    Wikipedia,
    /// News sites (the next ~4% of site ids).
    Newswire,
    /// Everything else.
    General,
}

/// The simulated web corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct Web {
    /// All pages.
    pub pages: Vec<Page>,
    /// Number of sites.
    pub n_sites: usize,
    /// Per-data-item "popular false value" — the wrong value that copying
    /// sources agree on.
    popular_false: FxHashMap<DataItem, Value>,
}

impl Web {
    /// Site class of `site` under the generator's conventions.
    pub fn site_class(site: SiteId, n_sites: usize) -> SiteClass {
        if site.index() == 0 {
            SiteClass::Wikipedia
        } else if site.index() <= (n_sites / 25).max(1) {
            SiteClass::Newswire
        } else {
            SiteClass::General
        }
    }

    /// The shared popular false value for `item`, if one was minted.
    pub fn popular_false(&self, item: &DataItem) -> Option<Value> {
        self.popular_false.get(item).copied()
    }

    /// Total number of claims across all pages.
    pub fn n_claims(&self) -> usize {
        self.pages.iter().map(|p| p.claims.len()).sum()
    }

    /// Generate the web from the world, deterministically from `seed`.
    pub fn generate(world: &World, cfg: &WebConfig, seed: u64) -> Self {
        Self::generate_with_scenarios(world, cfg, &ScenarioConfig::default(), seed).0
    }

    /// [`Web::generate`] plus the hostile-corpus scenarios that live at
    /// the web layer — source spam and temporal drift — returning the
    /// injected ground truth alongside the web. With a default
    /// [`ScenarioConfig`] this takes exactly the honest generator's code
    /// paths (no extra rng draws) and the injection is empty.
    pub fn generate_with_scenarios(
        world: &World,
        cfg: &WebConfig,
        scenarios: &ScenarioConfig,
        seed: u64,
    ) -> (Self, WebInjection) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);

        // Temporal drift: a hash-chosen fraction of items flipped truth at
        // `position`; pages before the flip claim a deterministic stale
        // value. Selection and stale-value minting are hash-seeded so the
        // organic rng stream is untouched.
        let drift_active = scenarios.drift.fraction > 0.0;
        let drift_flip = (scenarios.drift.position.clamp(0.0, 1.0) * cfg.n_pages as f64) as u32;
        let mut drift_map: FxHashMap<DataItem, Value> = FxHashMap::default();
        let mut drift_sorted: Vec<(DataItem, Value)> = Vec::new();
        if drift_active {
            let fraction = scenarios.drift.fraction.clamp(0.0, 1.0);
            for &item in world.items() {
                let h = hash::hash_u64(item.encode() ^ seed ^ 0xd81f_7c0a_11ce_55aa);
                if ((h % 1_000_000) as f64) < fraction * 1e6 {
                    let mut irng = SmallRng::seed_from_u64(hash::hash_u64(
                        item.encode() ^ seed ^ 0x5707_a1b2_c3d4_e5f6,
                    ));
                    let stale = wrong_value(world, world.truths(&item), &mut irng);
                    drift_map.insert(item, stale);
                    drift_sorted.push((item, stale));
                }
            }
            drift_sorted.sort_unstable_by_key(|&(item, _)| item);
        }
        let mut drift_stale_claims = 0u64;

        // Per-entity item lists for topical page generation, indexed by
        // entity rank: the entities that have items in ascending id order,
        // each entity's items in world order (the sort is stable), each
        // item with its truths (one world lookup per item, not per claim).
        let mut items_by_subject: Vec<(DataItem, &[Value])> = world
            .items()
            .iter()
            .map(|&item| (item, world.truths(&item)))
            .collect();
        items_by_subject.sort_by_key(|&(item, _)| item.subject);
        let items_by_rank: Vec<&[(DataItem, &[Value])]> = items_by_subject
            .chunk_by(|(a, _), (b, _)| a.subject == b.subject)
            .collect();
        assert!(
            !items_by_rank.is_empty(),
            "world has no data items; check WorldConfig::item_density"
        );

        // Popular-entity sampling: approximate a Zipf law over the entity
        // list by index rank.
        let zipf_rank = |rng: &mut SmallRng| -> usize {
            let n = items_by_rank.len() as f64;
            let u: f64 = rng.gen_range(0.0..1.0);
            // Inverse-CDF of a power law on ranks [1, n].
            let rank = (n.powf(u) - 1.0).max(0.0) as usize;
            rank.min(items_by_rank.len() - 1)
        };

        // Mint popular false values for a fraction of items up front.
        let mut popular_false: FxHashMap<DataItem, Value> = FxHashMap::default();
        for &item in world.items() {
            if hash::hash_u64(item.encode() ^ seed) % 100 < 30 {
                let wrong = wrong_value(world, world.truths(&item), &mut rng);
                popular_false.insert(item, wrong);
            }
        }

        // Pareto-ish claims-per-page: half the pages carry a single claim,
        // the head carries hundreds (paper §3.1.2 statistics).
        let pareto_claims = |rng: &mut SmallRng| -> usize {
            let alpha = 1.15;
            let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
            // floor of a Pareto(α) variate: P(N = 1) ≈ 0.55, heavy tail.
            let n = u.powf(-1.0 / alpha).floor() as usize;
            n.clamp(1, cfg.max_claims_per_page)
        };

        let mut pages = Vec::with_capacity(cfg.n_pages);
        for pid in 0..cfg.n_pages {
            // Zipf site assignment: low site ids host many pages.
            let site = {
                let n = cfg.n_sites as f64;
                let u: f64 = rng.gen_range(0.0..1.0);
                let rank = (n.powf(u.powf(cfg.site_zipf_exponent)) - 1.0).max(0.0) as usize;
                SiteId::from_index(rank.min(cfg.n_sites - 1))
            };

            // Sections present on this page.
            let mut present = [ContentType::Dom; 4];
            let mut n_present = 0;
            for (ct, &w) in ContentType::ALL.iter().zip(&cfg.section_weights) {
                if rng.gen_bool(w) {
                    present[n_present] = *ct;
                    n_present += 1;
                }
            }
            // No section drawn leaves the page its one DOM section.
            let sections = &present[..n_present.max(1)];

            // Topic entity (by rank) plus occasional off-topic claims.
            let topic = zipf_rank(&mut rng);
            let n_claims = pareto_claims(&mut rng);
            // Boost head pages (only) to roughly match mean_claims_per_page
            // while keeping the paper's "half the pages contribute a single
            // triple" tail intact.
            let n_claims = if n_claims > 1
                && rng.gen_bool((cfg.mean_claims_per_page / 14.0).clamp(0.05, 0.95))
            {
                n_claims.saturating_mul(2).clamp(1, cfg.max_claims_per_page)
            } else {
                n_claims
            };

            let mut claims = Vec::with_capacity(n_claims);
            for _ in 0..n_claims {
                let rank = if rng.gen_bool(0.7) {
                    topic
                } else {
                    zipf_rank(&mut rng)
                };
                let (item, truths) = *items_by_rank[rank]
                    .choose(&mut rng)
                    .expect("non-empty item list");
                debug_assert!(!truths.is_empty());

                // Temporal drift: before the flip, pages claim the stale
                // pre-flip value — a source error, since the world holds
                // the current truth.
                let stale = (!drift_map.is_empty() && (pid as u32) < drift_flip)
                    .then(|| drift_map.get(&item))
                    .flatten();
                let (value, source_error) = if let Some(&stale) = stale {
                    drift_stale_claims += 1;
                    (stale, true)
                } else {
                    // Source-level error injection.
                    let source_error = rng.gen_bool(cfg.source_error_rate);
                    let value = if source_error {
                        if rng.gen_bool(cfg.copied_error_rate) {
                            popular_false
                                .get(&item)
                                .copied()
                                .unwrap_or_else(|| wrong_value(world, truths, &mut rng))
                        } else {
                            wrong_value(world, truths, &mut rng)
                        }
                    } else {
                        *truths.choose(&mut rng).expect("non-empty truths")
                    };
                    (value, source_error)
                };

                let section = *sections.choose(&mut rng).expect("non-empty sections");
                claims.push(Claim {
                    item,
                    value,
                    section,
                    source_error,
                });
                // Small chance the same statement appears in a second
                // section (Fig. 3's small cross-type overlaps).
                if sections.len() > 1 && rng.gen_bool(0.04) {
                    let other = *sections.choose(&mut rng).expect("non-empty sections");
                    if other != section {
                        if stale.is_some() {
                            drift_stale_claims += 1;
                        }
                        claims.push(Claim {
                            item,
                            value,
                            section: other,
                            source_error,
                        });
                    }
                }
            }

            pages.push(Page {
                id: PageId::from_index(pid),
                site,
                claims,
            });
        }

        // Source spam: append low-quality pages on fresh (General-class)
        // sites, each pushing the same wrong voice per hash-chosen target
        // item. Target selection and wrong-value minting are deterministic
        // and independent of the organic rng stream.
        let mut n_sites = cfg.n_sites;
        let spam_page_start = pages.len() as u32;
        let mut spam_sorted: Vec<(DataItem, Value)> = Vec::new();
        if scenarios.spam.n_pages > 0 {
            let sp = &scenarios.spam;
            let mut ranked: Vec<(u64, DataItem)> = world
                .items()
                .iter()
                .map(|&item| {
                    (
                        hash::hash_u64(item.encode() ^ seed ^ 0x09a4_42dd_31f0_7b2c),
                        item,
                    )
                })
                .collect();
            ranked.sort_unstable();
            let n_items = sp.n_items.clamp(1, ranked.len());
            ranked.truncate(n_items);
            let mut srng = SmallRng::seed_from_u64(hash::hash_u64(seed ^ 0x6c62_272e_07bb_0142));
            let mut targets: Vec<(DataItem, Value)> = ranked
                .into_iter()
                .map(|(_, item)| {
                    let wrong = popular_false
                        .get(&item)
                        .copied()
                        .unwrap_or_else(|| wrong_value(world, world.truths(&item), &mut srng));
                    (item, wrong)
                })
                .collect();
            let claims_per_page = sp.claims_per_page.max(1);
            let spam_sites = sp.n_sites.max(1);
            for i in 0..sp.n_pages {
                let site = SiteId::from_index(cfg.n_sites + (i % spam_sites));
                let mut claims = Vec::with_capacity(claims_per_page);
                for j in 0..claims_per_page {
                    let (item, value) = targets[(i * claims_per_page + j) % targets.len()];
                    claims.push(Claim {
                        item,
                        value,
                        section: ContentType::Dom,
                        source_error: true,
                    });
                }
                pages.push(Page {
                    id: PageId::from_index(cfg.n_pages + i),
                    site,
                    claims,
                });
            }
            n_sites = cfg.n_sites + spam_sites;
            targets.sort_unstable_by_key(|&(item, _)| item);
            spam_sorted = targets;
            kf_telemetry::add("synth.scenario.spam_pages", sp.n_pages as u64);
            kf_telemetry::add(
                "synth.scenario.spam_claims",
                (sp.n_pages * claims_per_page) as u64,
            );
        }
        if drift_active {
            kf_telemetry::add("synth.scenario.drift_items", drift_sorted.len() as u64);
            kf_telemetry::add("synth.scenario.drift_stale_claims", drift_stale_claims);
        }

        let injection = WebInjection {
            spam: spam_sorted,
            spam_page_start,
            drift: drift_sorted,
            drift_flip_page: if drift_active { drift_flip } else { 0 },
        };
        (
            Web {
                pages,
                n_sites,
                popular_false,
            },
            injection,
        )
    }
}

/// Web-layer scenario ground truth, returned by
/// [`Web::generate_with_scenarios`] and folded into the corpus-level
/// `ScenarioTruth`. Empty (all-default) when no web scenario is active.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WebInjection {
    /// Spam targets: `(item, wrong value)` pushed by the spam pages,
    /// sorted by item.
    pub spam: Vec<(DataItem, Value)>,
    /// First spam page id; pages `spam_page_start..` are spam (only
    /// meaningful when `spam` is non-empty).
    pub spam_page_start: u32,
    /// Drifted items and their stale pre-flip values, sorted by item.
    pub drift: Vec<(DataItem, Value)>,
    /// Pages with id below this claimed the stale value (0 when drift is
    /// inactive).
    pub drift_flip_page: u32,
}

// ---- KvCodec impls (corpus checkpointing; see `crate::persist`) ----------

use kf_types::KvCodec;

/// Travels as the dense index into [`ContentType::ALL`].
impl KvCodec for ContentType {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        ContentType::ALL.get(u8::decode(input)? as usize).copied()
    }
}

impl KvCodec for Claim {
    fn encode(&self, out: &mut Vec<u8>) {
        KvCodec::encode(&self.item, out);
        KvCodec::encode(&self.value, out);
        self.section.encode(out);
        self.source_error.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Claim {
            item: DataItem::decode(input)?,
            value: Value::decode(input)?,
            section: ContentType::decode(input)?,
            source_error: bool::decode(input)?,
        })
    }
}

impl KvCodec for Page {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.site.encode(out);
        self.claims.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Page {
            id: PageId::decode(input)?,
            site: SiteId::decode(input)?,
            claims: Vec::decode(input)?,
        })
    }
}

/// Checkpoint encoding. Pages flatten into columns — page ids / sites /
/// claim counts, then one column per claim field — so decode is a bulk
/// scan instead of an element-wise walk over hundreds of thousands of
/// claims. The popular-false map encodes in sorted key order so the
/// bytes are canonical (see [`kf_types::codec::encode_map_sorted`]).
impl KvCodec for Web {
    fn encode(&self, out: &mut Vec<u8>) {
        use kf_types::codec::{encode_column, encode_map_sorted, encode_value_columns};
        let ids: Vec<u32> = self.pages.iter().map(|p| p.id.0).collect();
        let sites: Vec<u32> = self.pages.iter().map(|p| p.site.0).collect();
        let counts: Vec<u32> = self.pages.iter().map(|p| p.claims.len() as u32).collect();
        encode_column(&ids, out);
        encode_column(&sites, out);
        encode_column(&counts, out);
        let claims: Vec<&Claim> = self.pages.iter().flat_map(|p| &p.claims).collect();
        encode_column(
            &claims
                .iter()
                .map(|c| c.item.subject.0)
                .collect::<Vec<u32>>(),
            out,
        );
        encode_column(
            &claims
                .iter()
                .map(|c| c.item.predicate.0)
                .collect::<Vec<u32>>(),
            out,
        );
        encode_value_columns(&claims.iter().map(|c| c.value).collect::<Vec<Value>>(), out);
        encode_column(
            &claims
                .iter()
                .map(|c| c.section.index() as u8)
                .collect::<Vec<u8>>(),
            out,
        );
        encode_column(
            &claims
                .iter()
                .map(|c| c.source_error as u8)
                .collect::<Vec<u8>>(),
            out,
        );
        self.n_sites.encode(out);
        encode_map_sorted(&self.popular_false, out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        use kf_types::codec::{decode_column, decode_map, decode_value_columns};
        let ids: Vec<u32> = decode_column(input)?;
        let sites: Vec<u32> = decode_column(input)?;
        let counts: Vec<u32> = decode_column(input)?;
        let n_pages = ids.len();
        if sites.len() != n_pages || counts.len() != n_pages {
            return None;
        }
        let subjects: Vec<u32> = decode_column(input)?;
        let predicates: Vec<u32> = decode_column(input)?;
        let values = decode_value_columns(input)?;
        let sections: Vec<u8> = decode_column(input)?;
        let source_errors: Vec<u8> = decode_column(input)?;
        let n_claims = subjects.len();
        if [
            predicates.len(),
            values.len(),
            sections.len(),
            source_errors.len(),
        ]
        .iter()
        .any(|&l| l != n_claims)
        {
            return None;
        }

        let mut pages = Vec::with_capacity(n_pages);
        let mut at = 0usize;
        for i in 0..n_pages {
            let count = counts[i] as usize;
            let end = at.checked_add(count)?;
            if end > n_claims {
                return None;
            }
            let mut claims = Vec::with_capacity(count);
            for j in at..end {
                claims.push(Claim {
                    item: DataItem::new(
                        kf_types::EntityId(subjects[j]),
                        kf_types::PredicateId(predicates[j]),
                    ),
                    value: values[j],
                    section: *ContentType::ALL.get(sections[j] as usize)?,
                    source_error: match source_errors[j] {
                        0 => false,
                        1 => true,
                        _ => return None,
                    },
                });
            }
            at = end;
            pages.push(Page {
                id: PageId(ids[i]),
                site: SiteId(sites[i]),
                claims,
            });
        }
        if at != n_claims {
            return None;
        }
        Some(Web {
            pages,
            n_sites: usize::decode(input)?,
            popular_false: decode_map(input)?,
        })
    }
}

/// Mint a wrong value for an item whose true values are `truths`: a
/// confusable entity, a perturbed number, or a junk value, depending on the
/// kind of the true value. Guaranteed not to collide with any of the true
/// values (multi-truth items could otherwise be "wrong" onto another truth).
fn wrong_value(world: &World, truths: &[Value], rng: &mut SmallRng) -> Value {
    for _ in 0..4 {
        let truth = truths[rng.gen_range(0..truths.len())];
        let candidate = match truth {
            Value::Entity(e) => match world.confusable(e) {
                Some(c) if rng.gen_bool(0.6) => Value::Entity(c),
                _ => world.noise_value(rng.gen::<u64>()),
            },
            Value::Num(n) => Value::Num(kf_types::Numeric(
                n.0 + rng.gen_range(1..=5i64) * 1000 * if rng.gen_bool(0.5) { 1 } else { -1 },
            )),
            Value::Str(_) => world.noise_value(rng.gen::<u64>()),
        };
        if !truths.contains(&candidate) {
            return candidate;
        }
    }
    // The junk pool is disjoint from all world facts by construction.
    world.noise_value(rng.gen::<u64>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SynthConfig, WebConfig};

    fn web() -> (World, Web) {
        let cfg = SynthConfig::small();
        let world = World::generate(&cfg.world, 3);
        let web = Web::generate(&world, &cfg.web, 3);
        (world, web)
    }

    #[test]
    fn page_count_matches_config() {
        let cfg = SynthConfig::small();
        let (_, web) = web();
        assert_eq!(web.pages.len(), cfg.web.n_pages);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::tiny();
        let world = World::generate(&cfg.world, 9);
        let a = Web::generate(&world, &cfg.web, 9);
        let b = Web::generate(&world, &cfg.web, 9);
        assert_eq!(a.n_claims(), b.n_claims());
        for (pa, pb) in a.pages.iter().zip(&b.pages) {
            assert_eq!(pa.claims, pb.claims);
            assert_eq!(pa.site, pb.site);
        }
    }

    #[test]
    fn claims_reference_world_items() {
        let (world, web) = web();
        for page in web.pages.iter().take(200) {
            for claim in &page.claims {
                assert!(
                    !world.truths(&claim.item).is_empty(),
                    "claim about unknown item"
                );
            }
        }
    }

    #[test]
    fn correct_claims_hold_true_values() {
        let (world, web) = web();
        for page in web.pages.iter().take(500) {
            for claim in &page.claims {
                let is_true = world.truths(&claim.item).contains(&claim.value);
                if claim.source_error {
                    assert!(!is_true, "source error flagged on a true value");
                } else {
                    assert!(is_true, "unflagged claim must be true");
                }
            }
        }
    }

    #[test]
    fn source_error_rate_is_low() {
        let (_, web) = web();
        let total: usize = web.n_claims();
        let errors: usize = web
            .pages
            .iter()
            .flat_map(|p| &p.claims)
            .filter(|c| c.source_error)
            .count();
        let rate = errors as f64 / total as f64;
        assert!(rate > 0.005 && rate < 0.10, "source error rate {rate}");
    }

    #[test]
    fn dom_dominates_sections() {
        let (_, web) = web();
        let mut counts = [0usize; 4];
        for page in &web.pages {
            for claim in &page.claims {
                counts[claim.section.index()] += 1;
            }
        }
        let dom = counts[ContentType::Dom.index()];
        assert!(dom > counts[ContentType::Txt.index()]);
        assert!(dom > counts[ContentType::Tbl.index()]);
        assert!(dom > counts[ContentType::Ano.index()]);
        // TBL is the smallest contributor, as in Fig. 3.
        assert!(counts[ContentType::Tbl.index()] < counts[ContentType::Txt.index()]);
    }

    #[test]
    fn site_distribution_is_skewed() {
        let (_, web) = web();
        let mut per_site: FxHashMap<SiteId, usize> = FxHashMap::default();
        for page in &web.pages {
            *per_site.entry(page.site).or_default() += 1;
        }
        let max = per_site.values().copied().max().unwrap();
        let mean = web.pages.len() as f64 / per_site.len() as f64;
        assert!(
            max as f64 > 3.0 * mean,
            "no head sites: max={max} mean={mean}"
        );
    }

    #[test]
    fn claims_per_page_is_skewed_with_unit_floor() {
        let (_, web) = web();
        let singles = web.pages.iter().filter(|p| p.claims.len() <= 1).count();
        let frac = singles as f64 / web.pages.len() as f64;
        // Paper: half of the pages contribute a single triple.
        assert!(frac > 0.25 && frac < 0.8, "single-claim fraction {frac}");
        let max = web.pages.iter().map(|p| p.claims.len()).max().unwrap();
        assert!(max > 10, "no head pages, max={max}");
    }

    #[test]
    fn popular_false_values_are_wrong() {
        let (world, web) = web();
        let mut checked = 0;
        for (item, value) in web.popular_false.iter().take(500) {
            assert!(!world.truths(item).contains(value));
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn site_classes_partition_sites() {
        let n = 100;
        assert_eq!(Web::site_class(SiteId(0), n), SiteClass::Wikipedia);
        assert_eq!(Web::site_class(SiteId(2), n), SiteClass::Newswire);
        assert_eq!(Web::site_class(SiteId(50), n), SiteClass::General);
    }

    #[test]
    fn zero_weight_sections_never_appear() {
        let cfg = SynthConfig::tiny();
        let world = World::generate(&cfg.world, 5);
        let web_cfg = WebConfig {
            section_weights: [0.0, 1.0, 0.0, 0.0],
            ..cfg.web
        };
        let web = Web::generate(&world, &web_cfg, 5);
        for page in &web.pages {
            for claim in &page.claims {
                assert_eq!(claim.section, ContentType::Dom);
            }
        }
    }
}
