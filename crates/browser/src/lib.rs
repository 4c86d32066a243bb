//! Simulated browser engine.
//!
//! The stand-in for the paper's instrumented Chromium: it navigates to a
//! URL over a [`netsim::Network`], builds the frame tree (following
//! redirects, loading iframes — including lazy ones when "scrolled" —,
//! srcdoc and local-scheme documents), computes each document's
//! Permissions Policy with the `policy` engine, executes every script
//! through the `jsland` interpreter with Figure-1-style instrumentation
//! hooks, and returns a [`PageVisit`] holding exactly the data the paper's
//! pipeline stored per page: response headers of all frames at any depth,
//! iframe attributes, first-occurrence API invocations with stack-trace
//! attribution, script sources for static analysis, and the computed
//! allowed-feature lists.
//!
//! # Example
//!
//! ```
//! use browser::{Browser, BrowserConfig};
//! use netsim::{ContentProvider, ProviderResult, Response, SimClock, SimNetwork, SiteBehavior};
//! use weburl::Url;
//!
//! struct Site;
//! impl ContentProvider for Site {
//!     fn resolve(&self, url: &Url) -> ProviderResult {
//!         ProviderResult::Content {
//!             response: Response::html(
//!                 url.clone(),
//!                 r#"<script>navigator.getBattery();</script>"#,
//!             )
//!             .with_header("Permissions-Policy", "camera=()"),
//!             behavior: SiteBehavior::default(),
//!         }
//!     }
//! }
//!
//! let mut browser = Browser::new(SimNetwork::new(Site), BrowserConfig::default());
//! let mut clock = SimClock::new();
//! let visit = browser
//!     .visit(&Url::parse("https://example.org/").unwrap(), &mut clock)
//!     .unwrap();
//! let top = visit.top_frame().unwrap();
//! assert_eq!(top.permissions_policy_header.as_deref(), Some("camera=()"));
//! assert_eq!(top.invocations.len(), 1);
//! ```

mod browser;
mod hooks;
mod records;

pub use browser::{Browser, BrowserConfig, VisitBudget};
pub use hooks::BrowserHooks;
pub use records::{
    Completeness, DegradationEvent, DegradationKind, FrameRecord, IframeAttrs, InvocationKind,
    InvocationRecord, PageVisit, PromptRecord, ScriptOutcome, ScriptRecord, VisitError,
    VisitOutcome, SCHEMA_VERSION,
};
