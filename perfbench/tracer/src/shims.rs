//! Timing shims for the two network-side boundaries of a visit:
//! `ContentProvider::resolve` and `Network::fetch`. Each forwards to
//! the wrapped value unchanged and records one span around the call.

use bytes::Bytes;
use netsim::{ContentProvider, FetchError, Network, ProviderResult, Response, SimClock};
use weburl::Url;

use crate::spans::{self, Name};

/// Wraps the generated population: one `webgen.resolve` span per call.
pub struct TracedProvider<'a, P> {
    pub inner: &'a P,
}

impl<P: ContentProvider> ContentProvider for TracedProvider<'_, P> {
    fn resolve(&self, url: &Url) -> ProviderResult {
        spans::timed(Name::Resolve, || self.inner.resolve(url))
    }
}

/// Wraps a network with a span named `name` per fetch. The outermost
/// one (over the response cache) also keeps the documents the visit
/// received, which the re-timing reads back.
pub struct TracedNetwork<N> {
    pub inner: N,
    pub name: Name,
    pub log: Option<FetchLog>,
}

impl<N> TracedNetwork<N> {
    pub fn new(inner: N, name: Name, keep_documents: bool) -> TracedNetwork<N> {
        TracedNetwork {
            inner,
            name,
            log: keep_documents.then(FetchLog::default),
        }
    }
}

impl<N: Network> Network for TracedNetwork<N> {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        let response = spans::timed(self.name, || self.inner.fetch(url, clock));
        if let (Some(log), Ok(response)) = (&mut self.log, &response) {
            log.push(response);
        }
        response
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        self.inner.post_fetch_failure(url)
    }
}

/// The bodies one visit attempt received, by final URL.
#[derive(Debug, Default)]
pub struct FetchLog {
    entries: Vec<(String, Bytes)>,
}

impl FetchLog {
    pub fn push(&mut self, response: &Response) {
        self.entries
            .push((response.final_url.to_string(), response.body.clone()));
    }

    /// The first body received, the top-level document's.
    pub fn first(&self) -> Option<&Bytes> {
        self.entries.first().map(|(_, b)| b)
    }

    /// The body whose final URL is `url`.
    pub fn get(&self, url: &str) -> Option<&Bytes> {
        self.entries.iter().find(|(u, _)| u == url).map(|(_, b)| b)
    }
}
