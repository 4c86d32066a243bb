//! Visit tapes: capture and replay at the [`Network`] boundary.
//!
//! A [`RecordingNetwork`] wraps any inner network and writes every
//! exchange — request URL, simulated-clock advance, and the outcome
//! (response bytes, fetch error, or an injected panic) — onto a shared
//! [`VisitTape`]. A [`ReplayNetwork`] plays a tape back through the same
//! [`Network`] trait: same bytes, same clock advances, same faults, with
//! no content provider behind it at all.
//!
//! The recorder sits *below* the response cache: cache hits never reach
//! it, so a tape holds exactly the misses, and replay rebuilds the cache
//! on top to reproduce hit/miss accounting. The tape handle is created
//! outside the crawler's panic isolation so exchanges recorded before an
//! injected crash survive the unwind.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use weburl::Url;

use crate::clock::SimClock;
use crate::error::FetchError;
use crate::network::Network;
use crate::response::Response;

/// What one recorded fetch produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// A served response (the [`Response`] fields, denormalized so a
    /// tape needs no live [`Url`] values).
    Content {
        /// Status code.
        status: u16,
        /// Response headers, in order.
        headers: Vec<(String, String)>,
        /// Body bytes.
        body: Bytes,
        /// URL after redirects.
        final_url: String,
        /// Redirects followed.
        redirects: u32,
    },
    /// The fetch failed.
    Error(FetchError),
    /// The fetch panicked (injected crawler crash); replay re-panics
    /// with the recorded message.
    Panic(String),
}

/// One recorded fetch: request URL, clock advance, outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange {
    /// The requested URL.
    pub url: String,
    /// Simulated milliseconds the fetch advanced the clock.
    pub advance_ms: u64,
    /// What came back.
    pub outcome: ExchangeOutcome,
}

/// One recorded post-fetch failure probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostFetchProbe {
    /// The probed URL.
    pub url: String,
    /// The scheduled failure, if any.
    pub failure: Option<FetchError>,
}

/// Every network interaction of one visit attempt, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VisitTape {
    /// Fetches, in call order (cache misses only when recorded under a
    /// [`crate::CachingNetwork`]).
    pub exchanges: Vec<Exchange>,
    /// Post-fetch failure probes, in call order.
    pub probes: Vec<PostFetchProbe>,
}

/// Shared handle onto a [`VisitTape`] under construction. Cloned into
/// the recording network; the creator keeps a clone so the tape is
/// recoverable even when the attempt unwinds.
#[derive(Clone, Default)]
pub struct TapeHandle(Rc<RefCell<VisitTape>>);

impl TapeHandle {
    /// A handle onto a fresh, empty tape.
    pub fn new() -> TapeHandle {
        TapeHandle::default()
    }

    /// Takes the recorded tape, leaving an empty one behind.
    pub fn take(&self) -> VisitTape {
        self.0.take()
    }
}

/// A [`Network`] wrapper that records every exchange onto a tape while
/// delegating to the wrapped network unchanged.
pub struct RecordingNetwork<N> {
    inner: N,
    tape: TapeHandle,
}

impl<N: Network> RecordingNetwork<N> {
    /// Wraps `inner`, recording onto the tape behind `tape`.
    pub fn new(inner: N, tape: TapeHandle) -> RecordingNetwork<N> {
        RecordingNetwork { inner, tape }
    }
}

/// Best-effort panic message extraction (`panic!` payloads are `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl<N: Network> Network for RecordingNetwork<N> {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        let before = clock.now_ms();
        let inner = &mut self.inner;
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.fetch(url, clock)));
        let advance_ms = clock.now_ms() - before;
        let outcome = match &result {
            Ok(Ok(response)) => ExchangeOutcome::Content {
                status: response.status,
                headers: response.headers.clone(),
                body: response.body.clone(),
                final_url: response.final_url.to_string(),
                redirects: response.redirects,
            },
            Ok(Err(err)) => ExchangeOutcome::Error(*err),
            Err(payload) => ExchangeOutcome::Panic(panic_message(payload.as_ref())),
        };
        self.tape.0.borrow_mut().exchanges.push(Exchange {
            url: url.to_string(),
            advance_ms,
            outcome,
        });
        match result {
            Ok(outcome) => outcome,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        let failure = self.inner.post_fetch_failure(url);
        self.tape.0.borrow_mut().probes.push(PostFetchProbe {
            url: url.to_string(),
            failure,
        });
        failure
    }
}

/// A [`Network`] that serves one visit attempt byte-for-byte from a
/// recorded tape: same responses, same clock advances, same errors and
/// injected panics — with no content provider at all.
///
/// Replay consumes the tape in call order and panics loudly on any
/// divergence (a fetch the recording never made, or in a different
/// order), because a drifting replay would silently fabricate data.
pub struct ReplayNetwork {
    exchanges: VecDeque<Exchange>,
    probes: RefCell<VecDeque<PostFetchProbe>>,
}

impl ReplayNetwork {
    /// A replay network over one recorded tape.
    pub fn new(tape: VisitTape) -> ReplayNetwork {
        ReplayNetwork {
            exchanges: tape.exchanges.into(),
            probes: RefCell::new(tape.probes.into()),
        }
    }

    /// Exchanges not yet consumed (0 after a faithful replay).
    pub fn remaining(&self) -> usize {
        self.exchanges.len() + self.probes.borrow().len()
    }
}

/// Whether `url` serializes to exactly `recorded`, compared piecewise as
/// `Url`'s `Display` writes it, so a faithful replay allocates nothing.
fn serializes_to(url: &Url, recorded: &str) -> bool {
    struct Match<'a>(&'a str);
    impl std::fmt::Write for Match<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(std::fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Match(recorded);
    std::fmt::write(&mut rest, format_args!("{url}")).is_ok() && rest.0.is_empty()
}

impl Network for ReplayNetwork {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        let Some(exchange) = self.exchanges.pop_front() else {
            panic!("replay divergence: fetch of {url} past the end of the tape");
        };
        if !serializes_to(url, &exchange.url) {
            assert_eq!(
                exchange.url,
                url.to_string(),
                "replay divergence: tape recorded a fetch of {} here",
                exchange.url
            );
        }
        clock.advance(exchange.advance_ms);
        match exchange.outcome {
            ExchangeOutcome::Content {
                status,
                headers,
                body,
                final_url,
                redirects,
            } => Ok(Response {
                status,
                headers,
                body,
                final_url: Url::parse(&final_url).unwrap_or_else(|e| {
                    panic!("replay divergence: recorded final URL {final_url:?} unparseable: {e:?}")
                }),
                redirects,
            }),
            ExchangeOutcome::Error(err) => Err(err),
            // Reproduce the recorded crash (same `String` payload shape
            // as `panic!` with format arguments).
            ExchangeOutcome::Panic(message) => panic!("{}", message),
        }
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        let Some(probe) = self.probes.borrow_mut().pop_front() else {
            panic!("replay divergence: post-fetch probe of {url} past the end of the tape");
        };
        if !serializes_to(url, &probe.url) {
            assert_eq!(
                probe.url,
                url.to_string(),
                "replay divergence: tape recorded a probe of {} here",
                probe.url
            );
        }
        probe.failure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ContentProvider, ProviderResult, SimNetwork};
    use crate::response::SiteBehavior;

    struct TwoSites;

    impl ContentProvider for TwoSites {
        fn resolve(&self, url: &Url) -> ProviderResult {
            match url.host() {
                Some("ok.example") => ProviderResult::Content {
                    response: Response::html(url.clone(), "<p>hi</p>"),
                    behavior: SiteBehavior::default(),
                },
                Some("hop.example") => {
                    ProviderResult::Redirect(Url::parse("https://ok.example/").unwrap())
                }
                Some("eph.example") => ProviderResult::Content {
                    response: Response::html(url.clone(), "<p>eph</p>"),
                    behavior: SiteBehavior {
                        post_fetch_failure: Some(FetchError::EphemeralContext),
                        ..SiteBehavior::default()
                    },
                },
                _ => ProviderResult::DnsFailure,
            }
        }
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn record_then_replay_reproduces_responses_and_clock() {
        let tape = TapeHandle::new();
        let mut live_clock = SimClock::new();
        let mut recorder = RecordingNetwork::new(SimNetwork::new(TwoSites), tape.clone());
        let ok = recorder
            .fetch(&url("https://hop.example/"), &mut live_clock)
            .unwrap();
        let err = recorder
            .fetch(&url("https://gone.example/"), &mut live_clock)
            .unwrap_err();
        assert_eq!(recorder.post_fetch_failure(&ok.final_url), None);
        assert_eq!(err, FetchError::DnsFailure);

        let mut replay = ReplayNetwork::new(tape.take());
        let mut replay_clock = SimClock::new();
        let replayed = replay
            .fetch(&url("https://hop.example/"), &mut replay_clock)
            .unwrap();
        assert_eq!(replayed, ok);
        assert_eq!(
            replay
                .fetch(&url("https://gone.example/"), &mut replay_clock)
                .unwrap_err(),
            FetchError::DnsFailure
        );
        assert_eq!(replay.post_fetch_failure(&replayed.final_url), None);
        assert_eq!(replay_clock.now_ms(), live_clock.now_ms());
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn post_fetch_failures_replay_in_order() {
        let tape = TapeHandle::new();
        let mut clock = SimClock::new();
        let mut recorder = RecordingNetwork::new(SimNetwork::new(TwoSites), tape.clone());
        let r = recorder
            .fetch(&url("https://eph.example/"), &mut clock)
            .unwrap();
        assert_eq!(
            recorder.post_fetch_failure(&r.final_url),
            Some(FetchError::EphemeralContext)
        );
        let mut replay = ReplayNetwork::new(tape.take());
        let r2 = replay
            .fetch(&url("https://eph.example/"), &mut clock)
            .unwrap();
        assert_eq!(
            replay.post_fetch_failure(&r2.final_url),
            Some(FetchError::EphemeralContext)
        );
    }

    #[test]
    fn recorded_panics_survive_and_replay() {
        struct Crash;
        impl Network for Crash {
            fn fetch(&mut self, url: &Url, _clock: &mut SimClock) -> Result<Response, FetchError> {
                panic!("injected fault: simulated crawler crash fetching {url}");
            }
            fn post_fetch_failure(&self, _url: &Url) -> Option<FetchError> {
                None
            }
        }
        let tape = TapeHandle::new();
        let mut clock = SimClock::new();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let live = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RecordingNetwork::new(Crash, tape.clone()).fetch(&url("https://x.example/"), &mut clock)
        }));
        assert!(live.is_err());
        let recorded = tape.take();
        assert!(matches!(
            recorded.exchanges[0].outcome,
            ExchangeOutcome::Panic(_)
        ));
        let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ReplayNetwork::new(recorded.clone()).fetch(&url("https://x.example/"), &mut clock)
        }));
        std::panic::set_hook(prev);
        let payload = replayed.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("injected fault: simulated crawler crash fetching https://x.example/")
        );
    }

    #[test]
    fn replay_divergence_is_loud() {
        let tape = TapeHandle::new();
        let mut clock = SimClock::new();
        RecordingNetwork::new(SimNetwork::new(TwoSites), tape.clone())
            .fetch(&url("https://ok.example/"), &mut clock)
            .unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ReplayNetwork::new(tape.take()).fetch(&url("https://other.example/"), &mut clock)
        }));
        std::panic::set_hook(prev);
        assert!(result.is_err(), "URL mismatch must panic");
    }

    #[test]
    fn serialization_match_is_exact() {
        for s in [
            "https://ok.example/",
            "https://ok.example:8443/a/b?q=1#frag",
            "data:text/html,<p>x</p>",
            "about:blank",
        ] {
            let parsed = url(s);
            let shown = parsed.to_string();
            assert!(serializes_to(&parsed, &shown), "{shown}");
            assert!(
                !serializes_to(&parsed, &shown[..shown.len() - 1]),
                "{shown}"
            );
            assert!(!serializes_to(&parsed, &format!("{shown}x")), "{shown}");
            assert!(!serializes_to(&parsed, ""), "{shown}");
        }
        assert!(!serializes_to(
            &url("https://ok.example/a"),
            "https://ok.example/b"
        ));
    }

    /// The panic payload of `body`, as text.
    fn divergence_message(body: impl FnOnce()) -> String {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        std::panic::set_hook(prev);
        let payload = result.expect_err("divergence must panic");
        panic_message(payload.as_ref())
    }

    #[test]
    fn divergence_messages_name_both_urls() {
        let tape = TapeHandle::new();
        let mut clock = SimClock::new();
        let mut recorder = RecordingNetwork::new(SimNetwork::new(TwoSites), tape.clone());
        recorder
            .fetch(&url("https://ok.example/"), &mut clock)
            .unwrap();
        recorder.post_fetch_failure(&url("https://ok.example/"));
        let recorded = tape.take();

        let message = divergence_message(|| {
            let _ = ReplayNetwork::new(recorded.clone())
                .fetch(&url("https://other.example/"), &mut SimClock::new());
        });
        assert!(
            message.contains("tape recorded a fetch of https://ok.example/ here"),
            "{message}"
        );
        assert!(message.contains("https://other.example/"), "{message}");

        let message = divergence_message(|| {
            let mut replay = ReplayNetwork::new(recorded.clone());
            let _ = replay.fetch(&url("https://ok.example/"), &mut SimClock::new());
            replay.post_fetch_failure(&url("https://other.example/"));
        });
        assert!(
            message.contains("tape recorded a probe of https://ok.example/ here"),
            "{message}"
        );
        assert!(message.contains("https://other.example/"), "{message}");

        let message = divergence_message(|| {
            let mut replay = ReplayNetwork::new(recorded.clone());
            let _ = replay.fetch(&url("https://ok.example/"), &mut SimClock::new());
            let _ = replay.fetch(&url("https://ok.example/more"), &mut SimClock::new());
        });
        assert_eq!(
            message,
            "replay divergence: fetch of https://ok.example/more past the end of the tape"
        );
    }
}
