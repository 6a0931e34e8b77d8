//! The three-stage tracking-flow classifier (paper Sect. 3.2) over a whole
//! borrowed log.
//!
//! [`classify_with_stages_threads`] runs a fresh slice labeller
//! (`label.rs`) over the log as one slice: it indexes the log's URLs into
//! dense ids on their compact keys (the log repeats a few tens of
//! thousands of URLs across ~100k requests), and those ids — the URLs'
//! first-occurrence ranks — index the state bytes directly. Stage 1, the
//! one stage that shards over the thread budget, decides each *unique*
//! URL once.

use crate::label::{ChunkIndex, Labeller};
use crate::rules::FilterList;
use serde::{Deserialize, Serialize};
use xborder_browser::LoggedRequest;
use xborder_webgraph::DomainTable;

/// Per-request classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Classification {
    /// Matched by the easylist/easyprivacy rules (stage 1).
    AbpTracking,
    /// Added by the semi-automatic pass: referrer propagation (stage 2) or
    /// keyword matching (stage 3).
    SemiTracking,
    /// Not identified as tracking ("clean" third-party flow).
    Clean,
}

impl Classification {
    /// True for either tracking class.
    pub fn is_tracking(&self) -> bool {
        !matches!(self, Classification::Clean)
    }
}

/// Per-method aggregate counts — the columns of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MethodCounts {
    /// Distinct FQDNs among this method's tracking flows.
    pub n_fqdn: usize,
    /// Distinct pay-level domains ("TLD" in paper terms).
    pub n_tld: usize,
    /// Distinct request URLs.
    pub n_unique_urls: usize,
    /// Total requests.
    pub n_total_requests: usize,
}

/// The classifier's full output.
///
/// # Index invariant
///
/// `labels` is parallel to the classified request slice: label `i` belongs
/// to request `i`. Callers must index with positions from the *same* slice
/// the classifier ran over — after log faults drop entries, the remapping
/// in `xborder-browser`'s `extension.rs` compacts both the requests and
/// their referrer indices together, so compacted positions stay valid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationResult {
    /// Per-request labels, parallel to the input slice.
    pub labels: Vec<Classification>,
    /// Stage-1 (blocklist) counts: Table 2, row 1.
    pub abp: MethodCounts,
    /// Stage-2/3 (semi-automatic) counts: Table 2, row 2.
    pub semi: MethodCounts,
    /// Total propagation sweeps across both referrer stages (back-compat:
    /// the sum of [`ClassificationResult::stage2_rounds`] and
    /// [`ClassificationResult::stage3_rounds`]).
    pub propagation_rounds: usize,
    /// Sweeps the stage-2 referrer propagation needed: 1 for the ordered
    /// forward pass, plus the worklist depth if the input had forward-
    /// pointing referrers.
    pub stage2_rounds: usize,
    /// Propagation depth of the post-keyword re-propagation (0 when the
    /// keyword stage enabled nothing further).
    pub stage3_rounds: usize,
}

impl ClassificationResult {
    /// Assembles a result from its labels, the Table-2 rows `(abp, semi)`
    /// and the rounds each referrer stage needed.
    pub fn new(
        labels: Vec<Classification>,
        (abp, semi): (MethodCounts, MethodCounts),
        stage2_rounds: usize,
        stage3_rounds: usize,
    ) -> ClassificationResult {
        ClassificationResult {
            labels,
            abp,
            semi,
            propagation_rounds: stage2_rounds + stage3_rounds,
            stage2_rounds,
            stage3_rounds,
        }
    }

    /// Label of request `i`.
    ///
    /// `i` must be a position in the request slice this result was computed
    /// from (see the struct-level index invariant).
    pub fn label(&self, i: usize) -> Classification {
        debug_assert!(
            i < self.labels.len(),
            "request index {i} out of range ({} labels): labels are parallel to the \
             classified slice; use positions from the same (compacted) request log",
            self.labels.len()
        );
        self.labels[i]
    }

    /// True if request `i` was classified as tracking by any stage.
    ///
    /// Same index invariant as [`ClassificationResult::label`].
    pub fn is_tracking(&self, i: usize) -> bool {
        debug_assert!(
            i < self.labels.len(),
            "request index {i} out of range ({} labels): labels are parallel to the \
             classified slice; use positions from the same (compacted) request log",
            self.labels.len()
        );
        self.labels[i].is_tracking()
    }

    /// Total tracking requests over both methods (Table 2, "Total" row).
    pub fn total_tracking_requests(&self) -> usize {
        self.abp.n_total_requests + self.semi.n_total_requests
    }
}

/// Stage toggles for the classifier-ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassifierStages {
    /// Run the referrer-propagation stage.
    pub referrer_propagation: bool,
    /// Require URL arguments for referrer propagation (the paper does).
    pub require_args: bool,
    /// Run the keyword stage.
    pub keywords: bool,
}

impl Default for ClassifierStages {
    fn default() -> Self {
        ClassifierStages {
            referrer_propagation: true,
            require_args: true,
            keywords: true,
        }
    }
}

/// Runs the full classifier over a request log, single-threaded.
///
/// `domains` is the world interner the log's `DomainId`s index into
/// (`ExtensionDataset::domains` / `WebGraph::domains`).
pub fn classify(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
) -> ClassificationResult {
    classify_with_stages(
        requests,
        domains,
        easylist,
        easyprivacy,
        ClassifierStages::default(),
    )
}

/// Runs the classifier with configurable stages (ablation entry point).
pub fn classify_with_stages(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
    stages: ClassifierStages,
) -> ClassificationResult {
    classify_with_stages_threads(requests, domains, easylist, easyprivacy, stages, 1)
}

/// [`classify_with_stages`] with a thread budget for stage 1.
///
/// Output is bit-identical for every `threads` value: the shards write
/// disjoint verdict ranges and each URL's stage-1 verdict depends only on
/// the URL itself, never on shard-local state that could differ across
/// splits.
pub fn classify_with_stages_threads(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
    stages: ClassifierStages,
    threads: usize,
) -> ClassificationResult {
    let mut labeller = Labeller::new(easylist, easyprivacy, stages, ChunkIndex::default());
    labeller.index_slice(requests, domains);
    let mut states = vec![0u8; labeller.index.first.len()];
    let out = labeller.label(requests, None, &mut states[..], domains, threads);
    ClassificationResult::new(
        out.labels,
        labeller.counts(),
        out.stage2_rounds,
        out.stage3_rounds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listgen::generate_lists;
    use crate::testkit::{backward_chain, dataset, reversed_chain};

    #[test]
    fn semi_pass_finds_more_than_lists_alone() {
        let (graph, requests) = dataset(1);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        assert!(res.abp.n_total_requests > 0);
        assert!(res.semi.n_total_requests > 0, "semi pass found nothing");
        // The headline mechanism: the semi pass adds a substantial fraction
        // on top of the lists (paper: ~80 % more; the small synthetic config
        // yields 0.12–0.20 across seeds under the vendored RNG stream, so the
        // threshold checks the mechanism rather than the paper's magnitude).
        let ratio = res.semi.n_total_requests as f64 / res.abp.n_total_requests as f64;
        assert!(ratio > 0.1, "semi/abp ratio {ratio}");
    }

    #[test]
    fn false_positives_on_clean_services_are_rare() {
        // The keyword stage string-matches the whole URL (as the paper
        // does), so a random identifier can spuriously contain "rtb" —
        // a tiny, realistic noise floor rather than a defect.
        let (graph, requests) = dataset(2);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        let mut clean_total = 0usize;
        let mut clean_flagged = 0usize;
        for (i, r) in requests.iter().enumerate() {
            let svc = graph.service_by_host_id(r.host).expect("known host");
            if !graph.service(svc).is_tracking() {
                clean_total += 1;
                if res.is_tracking(i) {
                    clean_flagged += 1;
                }
            }
        }
        assert!(clean_total > 0);
        let fp_rate = clean_flagged as f64 / clean_total as f64;
        assert!(fp_rate < 0.005, "false-positive rate {fp_rate}");
    }

    #[test]
    fn recall_improves_with_semi_stage() {
        let (graph, requests) = dataset(3);
        let (el, ep) = generate_lists(&graph);
        let full = classify(&requests, graph.domains(), &el, &ep);
        let lists_only = classify_with_stages(
            &requests,
            graph.domains(),
            &el,
            &ep,
            ClassifierStages {
                referrer_propagation: false,
                require_args: true,
                keywords: false,
            },
        );
        let tracking_truth = requests
            .iter()
            .filter(|r| {
                graph
                    .service_by_host_id(r.host)
                    .map(|s| graph.service(s).is_tracking())
                    .unwrap_or(false)
            })
            .count();
        let full_found = full.labels.iter().filter(|l| l.is_tracking()).count();
        let lists_found = lists_only.labels.iter().filter(|l| l.is_tracking()).count();
        assert!(full_found > lists_found);
        assert!(full_found <= tracking_truth, "classifier overshoots truth");
    }

    #[test]
    fn counts_are_consistent() {
        let (graph, requests) = dataset(4);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        let tracked = res.labels.iter().filter(|l| l.is_tracking()).count();
        assert_eq!(res.total_tracking_requests(), tracked);
        assert!(res.abp.n_unique_urls <= res.abp.n_total_requests);
        assert!(res.abp.n_tld <= res.abp.n_fqdn);
        assert!(res.semi.n_tld <= res.semi.n_fqdn);
    }

    #[test]
    fn labels_parallel_to_input() {
        let (graph, requests) = dataset(5);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&requests, graph.domains(), &el, &ep);
        assert_eq!(res.labels.len(), requests.len());
    }

    #[test]
    fn empty_input() {
        let (graph, _) = dataset(6);
        let (el, ep) = generate_lists(&graph);
        let res = classify(&[], graph.domains(), &el, &ep);
        assert!(res.labels.is_empty());
        assert_eq!(res.abp.n_total_requests, 0);
        assert_eq!(res.semi.n_total_requests, 0);
    }

    /// A 40-link referrer chain stored in *reverse* order (each request's
    /// parent sits at a higher index), rooted in one blocklisted request.
    /// The pre-fix classifier labeled one link per whole-log rescan and
    /// stopped at the `rounds > 16` cap, silently dropping the deep tail;
    /// the worklist must label the entire chain.
    #[test]
    fn deep_reversed_chain_fully_labeled() {
        const LEN: usize = 40;
        let (domains, requests, el, ep) = reversed_chain(LEN);
        let res = classify(&requests, &domains, &el, &ep);
        let labeled = res.labels.iter().filter(|l| l.is_tracking()).count();
        assert_eq!(labeled, LEN, "whole chain must be labeled, got {labeled}/{LEN}");
        assert_eq!(res.labels[LEN - 1], Classification::AbpTracking);
        assert!(res.labels[0].is_tracking(), "deepest link dropped");
        // Depth bookkeeping: the chain needed more rounds than the old cap.
        assert!(
            res.stage2_rounds > 16,
            "stage-2 depth {} should exceed the old round cap",
            res.stage2_rounds
        );
        assert_eq!(res.stage3_rounds, 0);
        assert_eq!(res.propagation_rounds, res.stage2_rounds + res.stage3_rounds);
    }

    /// A chain stored in log order (referrers point backwards) converges in
    /// the single forward sweep — no worklist fallback.
    #[test]
    fn backward_chain_converges_in_one_sweep() {
        const LEN: usize = 40;
        let (domains, requests, el, ep) = backward_chain(LEN);
        let res = classify(&requests, &domains, &el, &ep);
        assert!(res.labels.iter().all(|l| l.is_tracking()));
        assert_eq!(res.stage2_rounds, 1, "backward chain must converge in one sweep");
    }

    /// The thread count must not change a single label.
    #[test]
    fn stage1_sharding_is_deterministic() {
        let (graph, requests) = dataset(7);
        let (el, ep) = generate_lists(&graph);
        let base = classify(&requests, graph.domains(), &el, &ep);
        for threads in [2, 3, 8] {
            let par = classify_with_stages_threads(
                &requests,
                graph.domains(),
                &el,
                &ep,
                ClassifierStages::default(),
                threads,
            );
            assert_eq!(par.labels, base.labels, "labels differ at threads={threads}");
            assert_eq!(par.abp, base.abp);
            assert_eq!(par.semi, base.semi);
        }
    }
}
