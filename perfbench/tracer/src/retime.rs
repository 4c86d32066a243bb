//! Re-timing of one visit's own inputs through each layer's public
//! functions.
//!
//! `Browser::visit` is timed from outside as one span, so its inner
//! layers cannot be seen directly. After each visit the tracer feeds
//! the same inputs — the documents the visit received, the headers and
//! `allow` attributes it recorded, the scripts it ran — through
//! `html::scan`, the policy parsers and `PolicyEngine`, and `jsland::Vm`
//! with `BrowserHooks`, in the order the browser used them. The results
//! are compared with the record (allowed features and invocations per
//! frame), so a re-timing that drifted from what the browser did shows
//! up as a mismatch count instead of a silently wrong number.
//!
//! The re-timing runs on a companion thread per worker, in lockstep with
//! it, so the per-thread front-end and static-scan memos see the same
//! sequence of sources as the worker's own thread.

use browser::{BrowserConfig, BrowserHooks, PageVisit, ScriptOutcome};
use jsland::{ScriptSource, StepPool, Vm};
use policy::engine::{DocumentPolicy, FramingContext, PolicyEngine};
use policy::header::{parse_permissions_policy, DeclaredPolicy};
use policy::{feature_policy, parse_allow_attribute};
use weburl::{Origin, Url};

use crate::shims::FetchLog;
use crate::spans::{self, Name};
use crate::Counters;

/// Re-times one visit's layers, adding counts to `counters`.
pub fn retime_visit(
    visit: &PageVisit,
    log: &FetchLog,
    config: &BrowserConfig,
    counters: &mut Counters,
) {
    let engine = PolicyEngine::new(config.local_scheme_behavior);
    let budget = config.budget;
    let mut pool = StepPool::limited(budget.page_script_steps);
    let mut scans: Vec<Option<html::Document>> = Vec::with_capacity(visit.frames.len());
    let mut policies: Vec<DocumentPolicy> = Vec::with_capacity(visit.frames.len());
    let mut srcdoc_seen: Vec<usize> = vec![0; visit.frames.len()];

    for frame in &visit.frames {
        counters.frames += 1;
        let attrs = frame.iframe_attrs.as_ref();
        let parent = frame.parent.filter(|p| *p < policies.len());
        let parent_url = parent
            .and_then(|p| visit.frames[p].url.as_deref())
            .and_then(|u| Url::parse(u).ok());
        let frame_url = frame.url.as_deref().and_then(|u| Url::parse(u).ok());
        let (scripts_enabled, same_origin) =
            sandbox_flags(attrs.and_then(|a| a.sandbox.as_deref()));

        // The document the browser scanned for this frame, if any.
        let kind = if frame.is_top_level || !frame.is_local_document {
            Kind::Network
        } else if attrs.is_some_and(|a| a.has_srcdoc) {
            Kind::Srcdoc
        } else {
            match frame_url.as_ref().map(Url::scheme) {
                Some("data") => Kind::Data,
                Some("blob") => Kind::Blob,
                _ => Kind::Empty,
            }
        };
        let html: Option<String> = match kind {
            Kind::Network => {
                let body = frame
                    .url
                    .as_deref()
                    .and_then(|u| log.get(u))
                    .or_else(|| frame.is_top_level.then(|| log.first()).flatten());
                body.map(|b| String::from_utf8_lossy(b).into_owned())
            }
            Kind::Srcdoc => parent.and_then(|p| {
                let k = srcdoc_seen[p];
                srcdoc_seen[p] += 1;
                scans[p]
                    .as_ref()
                    .and_then(|doc| doc.iframes.iter().filter_map(|f| f.srcdoc.clone()).nth(k))
            }),
            Kind::Data => frame_url.as_ref().map(|u| {
                u.path()
                    .split_once(',')
                    .map(|(_, body)| body.to_string())
                    .unwrap_or_default()
            }),
            Kind::Blob => Some(String::new()),
            Kind::Empty => None,
        };
        let scan = html.map(|mut html| {
            if html.len() > budget.max_document_bytes {
                truncate_to_boundary(&mut html, budget.max_document_bytes);
            }
            counters.html_bytes += html.len() as u64;
            spans::timed(Name::HtmlScan, || html::scan(&html))
        });

        // Policy: parse what the frame declared and was delegated, then
        // build its document policy and evaluate every feature.
        spans::enter(Name::PolicyParse);
        let declared = match kind {
            Kind::Network => effective_declared(
                frame.permissions_policy_header.as_deref(),
                frame.feature_policy_header.as_deref(),
            ),
            _ => DeclaredPolicy::default(),
        };
        let allow = attrs
            .and_then(|a| a.allow.as_deref())
            .map(parse_allow_attribute);
        spans::exit();
        spans::enter(Name::PolicyEval);
        let policy = match (parent.map(|p| &policies[p]), kind) {
            (None, _) => engine.document_for_top_level(
                frame_url.as_ref().map_or_else(Origin::opaque, Url::origin),
                declared,
            ),
            (Some(parent_policy), kind) => {
                let (origin, src_origin, local) = match kind {
                    Kind::Network => (
                        match (&frame_url, same_origin) {
                            (Some(url), true) => url.origin(),
                            _ => Origin::opaque(),
                        },
                        attrs
                            .and_then(|a| a.src.as_deref())
                            .and_then(|src| Url::parse_with_base(src, parent_url.as_ref()).ok())
                            .map(|u| u.origin()),
                        false,
                    ),
                    Kind::Srcdoc => {
                        let origin = if same_origin {
                            parent_policy.origin().clone()
                        } else {
                            Origin::opaque()
                        };
                        (origin.clone(), Some(origin), true)
                    }
                    Kind::Data | Kind::Blob => (Origin::opaque(), Some(Origin::opaque()), true),
                    Kind::Empty => {
                        let origin = parent_policy.origin().clone();
                        (origin.clone(), Some(origin), true)
                    }
                };
                let framing = FramingContext {
                    allow: allow.as_ref(),
                    src_origin,
                };
                engine.document_for_frame(parent_policy, &framing, origin, declared, local)
            }
        };
        let allowed: Vec<registry::FeatureToken> = policy
            .allowed_features()
            .into_iter()
            .map(registry::FeatureToken)
            .collect();
        spans::exit();
        if allowed != frame.allowed_features {
            counters.policy_mismatches += 1;
        }

        // Scripts: the ones the browser executed, on a fresh VM per
        // document drawing on one step pool per visit.
        if let Some(doc) = &scan {
            spans::enter(Name::JslandRun);
            let before = pool.remaining();
            let mut vm = Vm::new();
            let mut hooks = BrowserHooks::new(&policy);
            let executed = frame.scripts.len().saturating_sub(doc.handlers.len());
            if scripts_enabled {
                for script in &frame.scripts[..executed] {
                    if matches!(
                        script.outcome,
                        ScriptOutcome::FetchFailed | ScriptOutcome::BytesCapped
                    ) {
                        continue;
                    }
                    let source = match &script.url {
                        Some(url) => ScriptSource::external(url.clone()),
                        None => ScriptSource::inline(),
                    };
                    let _ = vm.run_pooled(&script.source, source, &mut hooks, &mut pool);
                    counters.scripts += 1;
                }
            }
            vm.drain_timers_pooled(&mut hooks, &mut pool);
            spans::exit();
            counters.steps += before - pool.remaining();
            let (hits, misses) = vm.ic_stats();
            counters.ic_hits += hits;
            counters.ic_misses += misses;
            if hooks.invocations != frame.invocations {
                counters.invocation_mismatches += 1;
            }
        }
        scans.push(scan);
        policies.push(policy);
    }
}

/// Re-times the static script scan the analysis runs over a record.
pub fn retime_static(record: &crawler::SiteRecord) {
    let Some(visit) = &record.visit else { return };
    spans::timed(Name::StaticScan, || {
        for frame in &visit.frames {
            for script in &frame.scripts {
                std::hint::black_box(staticscan::scan_script(&script.source));
            }
        }
    });
}

#[derive(Clone, Copy)]
enum Kind {
    /// A fetched document (the top level or a network iframe).
    Network,
    Srcdoc,
    Data,
    Blob,
    /// An empty local frame (`about:`, `javascript:`, no `src`).
    Empty,
}

/// The browser's sandbox reading: whether scripts run, and whether the
/// document keeps its origin.
fn sandbox_flags(sandbox: Option<&str>) -> (bool, bool) {
    match sandbox {
        None => (true, true),
        Some(value) => {
            let has = |token: &str| {
                value
                    .split_ascii_whitespace()
                    .any(|t| t.eq_ignore_ascii_case(token))
            };
            (has("allow-scripts"), has("allow-same-origin"))
        }
    }
}

/// The browser's header precedence: a valid `Permissions-Policy` wins,
/// an invalid one is dropped, `Feature-Policy` applies only without one.
fn effective_declared(pp: Option<&str>, fp: Option<&str>) -> DeclaredPolicy {
    if let Some(pp) = pp {
        return parse_permissions_policy(pp).unwrap_or_default();
    }
    if let Some(fp) = fp {
        return feature_policy::parse_feature_policy(fp);
    }
    DeclaredPolicy::default()
}

fn truncate_to_boundary(text: &mut String, max_bytes: usize) {
    let mut end = max_bytes;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    text.truncate(end);
}
