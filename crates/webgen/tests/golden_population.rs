//! Golden fingerprint of the generated population.
//!
//! Every byte the generator serves is a pure function of `(seed, rank)`,
//! so a fold over a fixed slice of the population pins it exactly: any
//! change to the hashing, the salts, the catalogs or the page templates
//! moves the constant. Refactors of the generator must leave it alone.

use netsim::{ContentProvider, ProviderResult};
use webgen::{site, trackers, widgets, PopulationConfig, WebPopulation};
use weburl::Url;

const SEED: u64 = 7;
const RANKS: u64 = 2_000;

/// 64-bit FNV-1a, folded incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so adjacent fields cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn result(&mut self, result: &ProviderResult) {
        match result {
            ProviderResult::Content { response, behavior } => {
                self.bytes(b"content");
                self.u64(u64::from(response.status));
                for (name, value) in &response.headers {
                    self.bytes(name.as_bytes());
                    self.bytes(value.as_bytes());
                }
                self.bytes(&response.body);
                self.bytes(response.final_url.to_string().as_bytes());
                self.u64(u64::from(response.redirects));
                self.u64(behavior.latency_ms);
                self.bytes(format!("{:?}", behavior.post_fetch_failure).as_bytes());
            }
            ProviderResult::Redirect(url) => {
                self.bytes(b"redirect");
                self.bytes(url.to_string().as_bytes());
            }
            ProviderResult::DnsFailure => self.bytes(b"dns"),
            ProviderResult::ConnectionFailure => self.bytes(b"connection"),
        }
    }
}

fn url(s: &str) -> Url {
    Url::parse(s).unwrap_or_else(|e| panic!("{s}: {e:?}"))
}

/// The origin's www/apex twin (the redirect target of redirecting ranks).
fn twin(origin: &Url) -> Url {
    let host = origin.host().expect("ranked origins have hosts");
    let twin = match host.strip_prefix("www.") {
        Some(apex) => apex.to_string(),
        None => format!("www.{host}"),
    };
    url(&format!("{}://{twin}/", origin.scheme()))
}

fn fold_population(pop: &WebPopulation) -> u64 {
    let mut fnv = Fnv::new();
    let render = url("https://ad.doubleclick.net/static/render.js");
    for rank in 1..=RANKS {
        let origin = pop.origin(rank);
        fnv.result(&pop.resolve(&origin));
        fnv.result(&pop.resolve(&twin(&origin)));
        fnv.result(
            &pop.resolve(&Url::parse_with_base("/about", Some(&origin)).expect("about url")),
        );
        for t in trackers::CATALOG {
            fnv.result(&pop.resolve(&url(&format!("https://{}{}?s={rank}", t.host, t.path))));
        }
        for w in widgets::CATALOG {
            fnv.result(&pop.resolve(&url(&format!(
                "https://{}/embed?s={rank}&i=0",
                w.frame_host
            ))));
        }
        fnv.result(&pop.resolve(&render));
        fnv.bytes(format!("{:?}", site::failure_class(SEED, rank)).as_bytes());
        fnv.u64(site::latency_ms(SEED, rank));
        fnv.bytes(format!("{:?}", site::post_fetch_failure(SEED, rank)).as_bytes());
    }
    fnv.0
}

fn population() -> WebPopulation {
    WebPopulation::new(PopulationConfig {
        seed: SEED,
        size: RANKS,
    })
}

#[test]
fn population_fingerprint_is_pinned() {
    assert_eq!(
        fold_population(&population()),
        GOLDEN,
        "the generated population changed"
    );
}

#[test]
fn adversarial_population_fingerprint_is_pinned() {
    let pop = population().with_adversarial(true);
    let mut fnv = Fnv::new();
    for rank in 1..=RANKS {
        let origin = pop.origin(rank);
        fnv.result(&pop.resolve(&origin));
        fnv.result(
            &pop.resolve(&Url::parse_with_base("/nest?d=1", Some(&origin)).expect("nest url")),
        );
    }
    assert_eq!(fnv.0, GOLDEN_ADVERSARIAL, "the hostile population changed");
}

/// Pinned for seed 7, ranks 1..=2000.
const GOLDEN: u64 = 12_163_104_378_069_592_438;
/// Pinned for the same slice with adversarial mode on.
const GOLDEN_ADVERSARIAL: u64 = 4_913_168_236_732_938_435;
