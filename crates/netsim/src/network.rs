//! The network: content resolution + failure injection + redirects.

use weburl::Url;

use crate::clock::SimClock;
use crate::error::FetchError;
use crate::response::{Response, SiteBehavior};

/// What a [`ContentProvider`] returns for a URL.
#[derive(Debug, Clone)]
pub enum ProviderResult {
    /// Serve this response with the given behaviour.
    Content {
        /// The response.
        response: Response,
        /// Latency / injected failures.
        behavior: SiteBehavior,
    },
    /// Redirect to another URL.
    Redirect(Url),
    /// The host does not resolve.
    DnsFailure,
    /// The host resolves but the connection fails.
    ConnectionFailure,
}

/// Supplies content for URLs (implemented by `webgen` over the synthetic
/// population).
///
/// `resolve` must be a pure function of the URL: [`SimNetwork`] answers
/// the post-fetch probe of a document it just served from that fetch
/// rather than resolving the URL a second time.
pub trait ContentProvider {
    /// Resolves one URL.
    fn resolve(&self, url: &Url) -> ProviderResult;
}

impl<T: ContentProvider + ?Sized> ContentProvider for &T {
    fn resolve(&self, url: &Url) -> ProviderResult {
        (**self).resolve(url)
    }
}

/// A network that can fetch URLs against a simulated clock.
pub trait Network {
    /// Fetches `url`, advancing `clock` by the simulated latency.
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError>;

    /// Post-fetch failure scheduled for this document, if any (ephemeral
    /// context destruction / crawler crash — consumed by the crawler
    /// during collection).
    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError>;
}

/// The standard simulated network over a content provider.
pub struct SimNetwork<P> {
    provider: P,
    max_redirects: u32,
    /// Fixed per-request overhead (DNS + TCP + TLS handshakes).
    connect_overhead_ms: u64,
    /// The final URL and post-fetch failure of the last document served,
    /// so the probe that follows a top-level fetch needs no second
    /// `resolve` (which would regenerate the whole page).
    last_served: Option<(Url, Option<FetchError>)>,
}

impl<P: ContentProvider> SimNetwork<P> {
    /// Creates a network over `provider`.
    pub fn new(provider: P) -> SimNetwork<P> {
        SimNetwork {
            provider,
            max_redirects: 5,
            connect_overhead_ms: 35,
            last_served: None,
        }
    }

    /// Access to the provider (for generators exposing extra queries).
    pub fn provider(&self) -> &P {
        &self.provider
    }
}

impl<P: ContentProvider> Network for SimNetwork<P> {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        let mut current = url.clone();
        let mut redirects = 0;
        loop {
            clock.advance(self.connect_overhead_ms);
            match self.provider.resolve(&current) {
                ProviderResult::Content {
                    mut response,
                    behavior,
                } => {
                    clock.advance(behavior.latency_ms);
                    self.last_served = Some((current.clone(), behavior.post_fetch_failure));
                    response.final_url = current;
                    response.redirects = redirects;
                    return Ok(response);
                }
                ProviderResult::Redirect(next) => {
                    redirects += 1;
                    if redirects > self.max_redirects {
                        return Err(FetchError::TooManyRedirects);
                    }
                    current = next;
                }
                ProviderResult::DnsFailure => return Err(FetchError::DnsFailure),
                ProviderResult::ConnectionFailure => return Err(FetchError::ConnectionFailure),
            }
        }
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        if let Some((served, failure)) = &self.last_served {
            if served == url {
                return *failure;
            }
        }
        match self.provider.resolve(url) {
            ProviderResult::Content { behavior, .. } => behavior.post_fetch_failure,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Serves `/` of every host with a host-dependent post-fetch failure,
    /// redirects `/old` to `/`, and counts resolves.
    struct Counting(Cell<u32>);

    impl ContentProvider for Counting {
        fn resolve(&self, url: &Url) -> ProviderResult {
            self.0.set(self.0.get() + 1);
            if url.path() == "/old" {
                let target = format!("https://{}/", url.host().unwrap());
                return ProviderResult::Redirect(Url::parse(&target).unwrap());
            }
            let post_fetch_failure = match url.host() {
                Some("crash.example") => Some(FetchError::CrawlerCrash),
                Some("ephemeral.example") => Some(FetchError::EphemeralContext),
                _ => None,
            };
            ProviderResult::Content {
                response: Response::html(url.clone(), "<p>x</p>"),
                behavior: SiteBehavior {
                    latency_ms: 10,
                    post_fetch_failure,
                },
            }
        }
    }

    #[test]
    fn probe_of_the_served_document_costs_no_resolve() {
        let mut net = SimNetwork::new(Counting(Cell::new(0)));
        let mut clock = SimClock::new();
        for host in ["crash.example", "ephemeral.example", "ok.example"] {
            let url = Url::parse(&format!("https://{host}/")).unwrap();
            let response = net.fetch(&url, &mut clock).unwrap();
            let resolves = net.provider().0.get();
            let probed = net.post_fetch_failure(&response.final_url);
            assert_eq!(net.provider().0.get(), resolves, "{host}");
            let expected = match net.provider().resolve(&url) {
                ProviderResult::Content { behavior, .. } => behavior.post_fetch_failure,
                _ => unreachable!(),
            };
            assert_eq!(probed, expected, "{host}");
        }
    }

    #[test]
    fn probe_after_a_redirect_chain_costs_no_resolve() {
        let mut net = SimNetwork::new(Counting(Cell::new(0)));
        let mut clock = SimClock::new();
        let url = Url::parse("https://crash.example/old").unwrap();
        let response = net.fetch(&url, &mut clock).unwrap();
        assert_eq!(response.redirects, 1);
        assert_eq!(net.provider().0.get(), 2);
        assert_eq!(
            net.post_fetch_failure(&response.final_url),
            Some(FetchError::CrawlerCrash)
        );
        assert_eq!(net.provider().0.get(), 2);
    }

    #[test]
    fn probe_of_another_url_falls_back_to_resolve() {
        let mut net = SimNetwork::new(Counting(Cell::new(0)));
        let mut clock = SimClock::new();
        // Nothing served yet.
        let crash = Url::parse("https://crash.example/").unwrap();
        assert_eq!(
            net.post_fetch_failure(&crash),
            Some(FetchError::CrawlerCrash)
        );
        assert_eq!(net.provider().0.get(), 1);
        // Something else served last.
        net.fetch(&Url::parse("https://ok.example/").unwrap(), &mut clock)
            .unwrap();
        assert_eq!(net.provider().0.get(), 2);
        let ephemeral = Url::parse("https://ephemeral.example/").unwrap();
        assert_eq!(
            net.post_fetch_failure(&ephemeral),
            Some(FetchError::EphemeralContext)
        );
        assert_eq!(
            net.post_fetch_failure(&crash),
            Some(FetchError::CrawlerCrash)
        );
        assert_eq!(net.provider().0.get(), 4);
        // The redirecting URL itself is not the served document.
        assert_eq!(
            net.post_fetch_failure(&Url::parse("https://ok.example/old").unwrap()),
            None
        );
        assert_eq!(net.provider().0.get(), 5);
    }

    struct Loop;

    impl ContentProvider for Loop {
        fn resolve(&self, url: &Url) -> ProviderResult {
            // a -> b -> a -> ...
            let next = if url.host() == Some("a.example") {
                "https://b.example/"
            } else {
                "https://a.example/"
            };
            ProviderResult::Redirect(Url::parse(next).unwrap())
        }
    }

    #[test]
    fn redirect_loops_are_bounded() {
        let mut net = SimNetwork::new(Loop);
        let mut clock = SimClock::new();
        let err = net
            .fetch(&Url::parse("https://a.example/").unwrap(), &mut clock)
            .unwrap_err();
        assert_eq!(err, FetchError::TooManyRedirects);
    }

    struct Broken;

    impl ContentProvider for Broken {
        fn resolve(&self, _url: &Url) -> ProviderResult {
            ProviderResult::ConnectionFailure
        }
    }

    #[test]
    fn connection_failures_propagate() {
        let mut net = SimNetwork::new(Broken);
        let mut clock = SimClock::new();
        let err = net
            .fetch(&Url::parse("https://x.example/").unwrap(), &mut clock)
            .unwrap_err();
        assert_eq!(err, FetchError::ConnectionFailure);
    }
}
