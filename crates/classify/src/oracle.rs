//! An independent reference classifier: paper Sect. 3.2 followed
//! literally, sharing no code with the slice labeller. Both classifiers
//! run the same labeller, so comparing them with each other cannot catch
//! a defect in it; comparing each with this reference can.
//!
//! - stage 1 matches every request against the textual filter lists;
//! - stages 2 and 3 rescan the whole log until nothing changes;
//! - the Table-2 counts come from sets of host, TLD and URL strings.

use crate::classifier::{classify_with_stages, Classification, ClassifierStages, MethodCounts};
use crate::incremental::IncrementalClassifier;
use crate::listgen::generate_lists;
use crate::rules::FilterList;
use crate::testkit::{backward_chain, dataset, rebased, reversed_chain};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;
use xborder_browser::{LoggedRequest, Referrer};
use xborder_webgraph::url::{EncodedUrl, UrlParts, UrlStyle, TRACKING_KEYWORDS};
use xborder_webgraph::DomainTable;

/// Labels and both Table-2 rows, as the paper defines them.
fn reference(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
    stages: ClassifierStages,
) -> (Vec<Classification>, MethodCounts, MethodCounts) {
    // Every row's URL string, rendered once; nothing below reads the
    // compact form.
    let urls: Vec<String> = requests.iter().map(|r| r.url_string(domains)).collect();
    let has_args = |i: usize| urls[i].contains('?');
    let has_keyword = |i: usize| {
        let url = urls[i].to_ascii_lowercase();
        TRACKING_KEYWORDS.iter().any(|k| url.contains(k))
    };
    // Stage 1: the blocklists, matched passively against every request.
    let mut labels: Vec<Classification> = requests
        .iter()
        .zip(&urls)
        .map(|(r, url)| {
            let host = domains.domain(r.host);
            if easylist.matches(host, url) || easyprivacy.matches(host, url) {
                Classification::AbpTracking
            } else {
                Classification::Clean
            }
        })
        .collect();
    // Stage 2: a request whose referrer is tracking and whose URL carries
    // arguments is tracking; rescan until no label changes.
    let propagate = |labels: &mut Vec<Classification>| loop {
        let mut changed = false;
        for (i, r) in requests.iter().enumerate() {
            if labels[i].is_tracking() {
                continue;
            }
            let Referrer::Request(parent) = r.referrer else {
                continue;
            };
            if labels[parent.0 as usize].is_tracking() && (!stages.require_args || has_args(i)) {
                labels[i] = Classification::SemiTracking;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    };
    if stages.referrer_propagation {
        propagate(&mut labels);
    }
    // Stage 3: remaining requests with arguments and a tracking keyword,
    // then propagation again from what they added.
    if stages.keywords {
        for (i, label) in labels.iter_mut().enumerate() {
            if !label.is_tracking() && has_args(i) && has_keyword(i) {
                *label = Classification::SemiTracking;
            }
        }
        if stages.referrer_propagation {
            propagate(&mut labels);
        }
    }
    let count = |method: Classification| {
        let mut hosts = HashSet::new();
        let mut tlds = HashSet::new();
        let mut unique = HashSet::new();
        let mut total = 0;
        for ((r, url), &l) in requests.iter().zip(&urls).zip(&labels) {
            if l == method {
                let host = domains.domain(r.host);
                hosts.insert(host.as_str().to_string());
                tlds.insert(host.tld().as_str().to_string());
                unique.insert(url.as_str());
                total += 1;
            }
        }
        MethodCounts {
            n_fqdn: hosts.len(),
            n_tld: tlds.len(),
            n_unique_urls: unique.len(),
            n_total_requests: total,
        }
    };
    let (abp, semi) = (
        count(Classification::AbpTracking),
        count(Classification::SemiTracking),
    );
    (labels, abp, semi)
}

/// Whole-user chunks of one to `max_users` users each, drawn from `rng`.
fn random_user_chunks<'a>(
    requests: &'a [LoggedRequest],
    rng: &mut StdRng,
    max_users: u32,
) -> Vec<&'a [LoggedRequest]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < requests.len() {
        let end_user = requests[start].user.0 + rng.gen_range(1..=max_users);
        let len = requests[start..]
            .iter()
            .take_while(|r| r.user.0 < end_user)
            .count();
        chunks.push(&requests[start..start + len]);
        start += len;
    }
    chunks
}

/// Checks the batch classifier and the incremental one at `chunkings`
/// random whole-user chunkings against the reference, and returns the
/// reference's Table-2 rows.
#[allow(clippy::too_many_arguments)]
fn check_against_reference(
    what: &str,
    requests: &[LoggedRequest],
    domains: &DomainTable,
    easylist: &FilterList,
    easyprivacy: &FilterList,
    stages: ClassifierStages,
    rng: &mut StdRng,
    chunkings: usize,
) -> (MethodCounts, MethodCounts) {
    let (labels, abp, semi) = reference(requests, domains, easylist, easyprivacy, stages);
    let batch = classify_with_stages(requests, domains, easylist, easyprivacy, stages);
    assert!(
        batch.labels == labels,
        "{what}, {stages:?}: batch labels differ from the reference"
    );
    assert_eq!(
        (batch.abp, batch.semi),
        (abp, semi),
        "{what}, {stages:?}: batch counts"
    );
    for _ in 0..chunkings {
        let chunks = random_user_chunks(requests, rng, 8);
        let mut cls = IncrementalClassifier::new(easylist, easyprivacy, stages);
        let mut streamed = Vec::with_capacity(requests.len());
        let mut offset = 0usize;
        for chunk in &chunks {
            streamed.extend(cls.append_chunk(&rebased(chunk, offset), domains).labels);
            offset += chunk.len();
        }
        let n = chunks.len();
        assert!(
            streamed == labels,
            "{what}, {stages:?}, {n} chunks: labels differ from the reference"
        );
        assert_eq!(
            cls.counts(),
            (abp, semi),
            "{what}, {stages:?}, {n} chunks: counts"
        );
    }
    (abp, semi)
}

#[test]
fn both_classifiers_match_the_reference_on_study_logs() {
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    for seed in [31, 32, 33, 34] {
        let (graph, requests) = dataset(seed);
        let (el, ep) = generate_lists(&graph);
        let (abp, semi) = check_against_reference(
            &format!("seed {seed}"),
            &requests,
            graph.domains(),
            &el,
            &ep,
            ClassifierStages::default(),
            &mut rng,
            2,
        );
        // Both rows must have work to do, or the comparison proves little.
        assert!(
            abp.n_total_requests > 0 && semi.n_total_requests > 0,
            "seed {seed}"
        );
    }
}

#[test]
fn both_classifiers_match_the_reference_for_every_stage_toggle() {
    let mut rng = StdRng::seed_from_u64(0x57A6E);
    let (graph, requests) = dataset(35);
    let (el, ep) = generate_lists(&graph);
    for bits in 0..8u8 {
        let stages = ClassifierStages {
            referrer_propagation: bits & 1 != 0,
            require_args: bits & 2 != 0,
            keywords: bits & 4 != 0,
        };
        check_against_reference(
            "seed 35",
            &requests,
            graph.domains(),
            &el,
            &ep,
            stages,
            &mut rng,
            1,
        );
    }
}

/// Deep chains in both edge directions, whole and with every seventh link
/// stripped of its arguments (made a plain URL). The generated study never logs an
/// argument-free child of a tracking request, so the stripped chains are
/// what make stage 2's argument test observable.
#[test]
fn both_classifiers_match_the_reference_on_deep_chains() {
    let mut rng = StdRng::seed_from_u64(0xC4A1);
    for (what, (domains, mut requests, el, ep)) in [
        ("reversed chain", reversed_chain(40)),
        ("backward chain", backward_chain(40)),
    ] {
        check_against_reference(
            what,
            &requests,
            &domains,
            &el,
            &ep,
            ClassifierStages::default(),
            &mut rng,
            1,
        );
        for r in requests.iter_mut().skip(3).step_by(7) {
            r.url = EncodedUrl::try_from(UrlParts {
                style: UrlStyle::Plain,
                service: 0,
                cb: None,
                ..r.url.parts()
            })
            .expect("a plain URL with the first path");
            assert!(!r.url_string(&domains).contains('?'));
        }
        let (labels, ..) = reference(&requests, &domains, &el, &ep, ClassifierStages::default());
        assert!(
            labels.iter().any(|l| !l.is_tracking()),
            "{what}: an argument-free link must stop propagation"
        );
        let what = format!("{what} with argument-free links");
        check_against_reference(
            &what,
            &requests,
            &domains,
            &el,
            &ep,
            ClassifierStages::default(),
            &mut rng,
            1,
        );
    }
}
