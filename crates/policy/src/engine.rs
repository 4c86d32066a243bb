//! The Permissions Policy processing model.
//!
//! Implements the spec algorithms the browser runs:
//!
//! * *is feature enabled in document for origin?* —
//!   [`DocumentPolicy::is_enabled_for`],
//! * *define an inherited policy for feature in container at origin* —
//!   applied when constructing a child [`DocumentPolicy`] via
//!   [`PolicyEngine::document_for_frame`].
//!
//! The engine has one switch, [`LocalSchemeBehavior`], selecting between
//! the behaviour the paper *expected* (local-scheme documents inherit the
//! parent's declared policy) and the behaviour the spec actually produces
//! in Chromium (local-scheme documents get a fresh declared policy) — the
//! §6.2 specification issue that enables permission hijacking via
//! `data:`-URI documents (Table 11).

use registry::{DefaultAllowlist, Permission};
use weburl::Origin;

use crate::allow_attr::AllowAttribute;
use crate::header::DeclaredPolicy;

/// How local-scheme (`data:`, `about:srcdoc`, `blob:`) documents treat the
/// parent's *declared* (header) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalSchemeBehavior {
    /// Expected behaviour: the child inherits the parent's declared policy,
    /// with `self` still referring to the parent's origin. A `camera=(self)`
    /// header keeps constraining what the local document can delegate.
    InheritParent,
    /// Spec-as-written / Chromium behaviour (w3c/webappsec-permissions-policy
    /// issue #552): the local document starts with **no** declared policy,
    /// so the parent's header no longer constrains onward delegation —
    /// the local-scheme document attack.
    #[default]
    FreshPolicy,
}

/// The policy engine: constructs document policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyEngine {
    /// Local-scheme declared-policy inheritance behaviour.
    pub local_scheme: LocalSchemeBehavior,
}

/// How a frame is embedded: everything the inheritance algorithm needs
/// from the embedding side.
#[derive(Debug, Clone, Default)]
pub struct FramingContext<'a> {
    /// The `allow` attribute of the embedding `<iframe>`, if any.
    pub allow: Option<&'a AllowAttribute>,
    /// The origin of the iframe's `src` URL (the `'src'` keyword target).
    pub src_origin: Option<Origin>,
}

/// The permissions policy of one document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentPolicy {
    /// The document's own origin.
    origin: Origin,
    /// The origin `self` refers to in the declared policy. Differs from
    /// `origin` only for local-scheme documents inheriting the parent's
    /// declared policy under [`LocalSchemeBehavior::InheritParent`].
    policy_origin: Origin,
    /// The declared (header) policy.
    declared: DeclaredPolicy,
    /// Inherited policy as a [`Permission::bit`] set: the policy-controlled
    /// features that were *disabled* at document creation. Every other
    /// feature was inherited as enabled, so a top-level or fresh
    /// local-scheme document has the empty set.
    inherited_disabled: u128,
}

impl DocumentPolicy {
    /// The document's origin.
    pub fn origin(&self) -> &Origin {
        &self.origin
    }

    /// The declared (header) policy.
    pub fn declared(&self) -> &DeclaredPolicy {
        &self.declared
    }

    /// The spec's *is feature enabled in document for origin?*.
    ///
    /// Non-policy-controlled features are not governed by Permissions
    /// Policy at all; the engine reports them as enabled and leaves their
    /// semantics (e.g. notifications being top-level-only) to the browser.
    pub fn is_enabled_for(&self, feature: Permission, origin: &Origin) -> bool {
        let info = feature.info();
        if !info.policy_controlled {
            return true;
        }
        if self.inherited_disabled & feature.bit() != 0 {
            return false;
        }
        if let Some(allowlist) = self.declared.get(feature) {
            return allowlist.matches(origin, &self.policy_origin, None);
        }
        match info.default_allowlist {
            Some(DefaultAllowlist::Star) => true,
            Some(DefaultAllowlist::SelfOrigin) => origin.same_origin(&self.origin),
            None => unreachable!("policy-controlled features have a default allowlist"),
        }
    }

    /// Whether the document itself may use the feature (and therefore
    /// prompt the user / delegate it onward). This is the paper's
    /// "Prompt and Delegation Capability" column.
    pub fn allowed_to_use(&self, feature: Permission) -> bool {
        self.is_enabled_for(feature, &self.origin)
    }

    /// Features reported by `document.featurePolicy.allowedFeatures()`:
    /// every policy-controlled feature enabled for the document's origin.
    pub fn allowed_features(&self) -> Vec<Permission> {
        registry::policy_controlled_permissions()
            .filter(|f| self.allowed_to_use(*f))
            .collect()
    }
}

impl PolicyEngine {
    /// Creates the engine with the given local-scheme behaviour.
    pub fn new(local_scheme: LocalSchemeBehavior) -> PolicyEngine {
        PolicyEngine { local_scheme }
    }

    /// Policy for a top-level document: inherited policy is all-enabled;
    /// the declared policy comes from the response headers.
    pub fn document_for_top_level(
        &self,
        origin: Origin,
        declared: DeclaredPolicy,
    ) -> DocumentPolicy {
        DocumentPolicy {
            policy_origin: origin.clone(),
            origin,
            declared,
            inherited_disabled: 0,
        }
    }

    /// The spec's *define an inherited policy for feature in container at
    /// origin*, evaluated against the parent document's policy.
    fn inherited_for(
        &self,
        feature: Permission,
        parent: &DocumentPolicy,
        framing: &FramingContext<'_>,
        child_origin: &Origin,
    ) -> bool {
        // Step: feature must be enabled in the parent for the parent itself.
        if !parent.is_enabled_for(feature, &parent.origin) {
            return false;
        }
        // Step: a declared directive in the parent that does not cover the
        // child's origin blocks inheritance (Table 1 case #4).
        if let Some(allowlist) = parent.declared.get(feature) {
            if !allowlist.matches(child_origin, &parent.policy_origin, None) {
                return false;
            }
        }
        // Step: the container policy (allow attribute) decides if present.
        if let Some(allow) = framing.allow {
            if let Some(delegation) = allow.get(feature) {
                return delegation.allowlist.matches(
                    child_origin,
                    &parent.origin,
                    framing.src_origin.as_ref(),
                );
            }
        }
        // Steps: fall back to the default allowlist.
        match feature.info().default_allowlist {
            Some(DefaultAllowlist::Star) => true,
            Some(DefaultAllowlist::SelfOrigin) => child_origin.same_origin(&parent.origin),
            None => true,
        }
    }

    /// Policy for a framed document.
    ///
    /// `child_declared` is the policy parsed from the frame's own response
    /// headers (always empty for local-scheme documents — they have no
    /// headers). `is_local_scheme` selects the [`LocalSchemeBehavior`]
    /// handling.
    pub fn document_for_frame(
        &self,
        parent: &DocumentPolicy,
        framing: &FramingContext<'_>,
        child_origin: Origin,
        child_declared: DeclaredPolicy,
        is_local_scheme: bool,
    ) -> DocumentPolicy {
        if is_local_scheme {
            return match self.local_scheme {
                // Expected behaviour: the local document *is* its parent
                // for policy purposes — same inherited policy, same
                // declared policy, same `self` reference. Onward
                // delegation stays constrained exactly like delegation
                // from the parent itself.
                LocalSchemeBehavior::InheritParent => parent.clone(),
                // The bug: the local document gets a completely fresh
                // policy, as if it were a new top-level page — the
                // parent's header no longer constrains anything it does.
                LocalSchemeBehavior::FreshPolicy => DocumentPolicy {
                    policy_origin: child_origin.clone(),
                    origin: child_origin,
                    declared: DeclaredPolicy::default(),
                    inherited_disabled: 0,
                },
            };
        }
        let inherited_disabled = registry::policy_controlled_permissions()
            .filter(|&f| !self.inherited_for(f, parent, framing, &child_origin))
            .fold(0, |set, f| set | f.bit());
        DocumentPolicy {
            policy_origin: child_origin.clone(),
            origin: child_origin,
            declared: child_declared,
            inherited_disabled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allow_attr::parse_allow_attribute;
    use crate::header::parse_permissions_policy;
    use weburl::Url;

    const CAMERA: Permission = Permission::Camera;

    fn origin(s: &str) -> Origin {
        Url::parse(s).unwrap().origin()
    }

    fn top(engine: &PolicyEngine, header: Option<&str>) -> DocumentPolicy {
        let declared = header
            .map(|h| parse_permissions_policy(h).unwrap())
            .unwrap_or_default();
        engine.document_for_top_level(origin("https://example.org/"), declared)
    }

    /// Embeds https://iframe.com under `parent` with the given allow attr.
    fn embed(
        engine: &PolicyEngine,
        parent: &DocumentPolicy,
        allow: Option<&str>,
    ) -> DocumentPolicy {
        let allow = allow.map(parse_allow_attribute);
        let framing = FramingContext {
            allow: allow.as_ref(),
            src_origin: Some(origin("https://iframe.com/")),
        };
        engine.document_for_frame(
            parent,
            &framing,
            origin("https://iframe.com/"),
            DeclaredPolicy::default(),
            false,
        )
    }

    /// The paper's Table 1, all eight cases.
    #[test]
    fn table1_delegation_matrix() {
        let engine = PolicyEngine::default();
        // (header, allow, expect_top, expect_iframe)
        let cases: [(Option<&str>, Option<&str>, bool, bool); 8] = [
            (None, None, true, false),                            // #1
            (None, Some("camera"), true, true),                   // #2
            (Some("camera=()"), Some("camera"), false, false),    // #3
            (Some("camera=(self)"), Some("camera"), true, false), // #4
            (Some("camera=(*)"), None, true, false),              // #5
            (Some("camera=(*)"), Some("camera"), true, true),     // #6
            (
                Some(r#"camera=(self "https://iframe.com")"#),
                Some("camera"),
                true,
                true,
            ), // #7
            (
                Some(r#"camera=("https://iframe.com")"#),
                Some("camera"),
                false,
                false,
            ), // #8
        ];
        for (i, (header, allow, expect_top, expect_iframe)) in cases.iter().enumerate() {
            let parent = top(&engine, *header);
            assert_eq!(
                parent.allowed_to_use(CAMERA),
                *expect_top,
                "case #{} top-level",
                i + 1
            );
            let child = embed(&engine, &parent, *allow);
            assert_eq!(
                child.allowed_to_use(CAMERA),
                *expect_iframe,
                "case #{} iframe",
                i + 1
            );
        }
    }

    /// Once delegated, a permission can be re-delegated to nested iframes
    /// regardless of the top-level header (§2.2.5).
    #[test]
    fn nested_redelegation_cannot_be_prevented() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, Some(r#"camera=(self "https://iframe.com")"#));
        let child = embed(&engine, &parent, Some("camera"));
        assert!(child.allowed_to_use(CAMERA));
        // iframe.com embeds nested.example with allow="camera".
        let framing = FramingContext {
            allow: Some(&parse_allow_attribute("camera")),
            src_origin: Some(origin("https://nested.example/")),
        };
        let nested = engine.document_for_frame(
            &child,
            &framing,
            origin("https://nested.example/"),
            DeclaredPolicy::default(),
            false,
        );
        assert!(
            nested.allowed_to_use(CAMERA),
            "nested re-delegation succeeds despite top-level allowlist"
        );
    }

    /// Same-origin iframes get `self`-default features without delegation.
    #[test]
    fn same_origin_iframe_inherits_self_default() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, None);
        let framing = FramingContext {
            allow: None,
            src_origin: Some(origin("https://example.org/widget")),
        };
        let child = engine.document_for_frame(
            &parent,
            &framing,
            origin("https://example.org/"),
            DeclaredPolicy::default(),
            false,
        );
        assert!(child.allowed_to_use(CAMERA));
    }

    /// Star-default features (picture-in-picture) reach third-party iframes
    /// without any delegation.
    #[test]
    fn star_default_features_need_no_delegation() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, None);
        let child = embed(&engine, &parent, None);
        assert!(child.allowed_to_use(Permission::PictureInPicture));
        assert!(!child.allowed_to_use(Permission::Camera));
    }

    /// The frame's own header can restrict it further.
    #[test]
    fn child_header_restricts_child() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, None);
        let allow = parse_allow_attribute("camera");
        let framing = FramingContext {
            allow: Some(&allow),
            src_origin: Some(origin("https://iframe.com/")),
        };
        let child = engine.document_for_frame(
            &parent,
            &framing,
            origin("https://iframe.com/"),
            parse_permissions_policy("camera=()").unwrap(),
            false,
        );
        assert!(!child.allowed_to_use(CAMERA));
    }

    /// Table 11: the local-scheme document attack.
    #[test]
    fn table11_local_scheme_attack() {
        for (behavior, attacker_gets_camera) in [
            (LocalSchemeBehavior::InheritParent, false), // expected
            (LocalSchemeBehavior::FreshPolicy, true),    // actual spec/Chromium
        ] {
            let engine = PolicyEngine::new(behavior);
            // example.org declares camera=(self).
            let parent = top(&engine, Some("camera=(self)"));
            assert!(parent.allowed_to_use(CAMERA));
            // It embeds a local-scheme (data:) document. about:srcdoc-style
            // docs share the parent's origin in Chromium's treatment of
            // 'self'-delegated features; model the PoC's srcdoc case where
            // the local doc is reachable by camera (✓ in both Table 11 rows).
            let local_origin = parent.origin().clone();
            let framing = FramingContext {
                allow: None,
                src_origin: None,
            };
            let local = engine.document_for_frame(
                &parent,
                &framing,
                local_origin,
                DeclaredPolicy::default(),
                true,
            );
            assert!(
                local.allowed_to_use(CAMERA),
                "{behavior:?}: local doc has camera"
            );
            // The local doc embeds attacker.com with allow="camera".
            let allow = parse_allow_attribute("camera");
            let framing = FramingContext {
                allow: Some(&allow),
                src_origin: Some(origin("https://attacker.com/")),
            };
            let attacker = engine.document_for_frame(
                &local,
                &framing,
                origin("https://attacker.com/"),
                DeclaredPolicy::default(),
                false,
            );
            assert_eq!(
                attacker.allowed_to_use(CAMERA),
                attacker_gets_camera,
                "{behavior:?}: attacker frame"
            );
        }
    }

    /// Non-policy-controlled features are not governed by the engine.
    #[test]
    fn notifications_not_governed() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, Some("camera=()"));
        assert!(parent.is_enabled_for(Permission::Notifications, parent.origin()));
    }

    /// allowed_features reflects header restrictions.
    #[test]
    fn allowed_features_list() {
        let engine = PolicyEngine::default();
        let unrestricted = top(&engine, None);
        let restricted = top(&engine, Some("camera=(), microphone=(), geolocation=()"));
        let full = unrestricted.allowed_features();
        let less = restricted.allowed_features();
        assert_eq!(full.len(), less.len() + 3);
        assert!(!less.contains(&Permission::Camera));
        assert!(full.contains(&Permission::Camera));
    }

    /// `allowed_features()` lists, in registry order (the record byte
    /// layout depends on that order), exactly the features an answer
    /// computed without the inherited bitset allows: the header alone for
    /// a top-level document, the per-feature inheritance algorithm for a
    /// framed one, and the parent or an empty policy for a local one. A
    /// few features are also pinned by hand.
    #[test]
    fn allowed_features_follow_registry_order() {
        use Permission as P;
        const HEADER: &str = "camera=(self), geolocation=(), fullscreen=*, ch-ua-wow64=()";
        const ALLOW: &str = "camera; microphone *; ch-ua-wow64; autoplay 'none'";
        let probes = [
            P::Camera,
            P::Microphone,
            P::Geolocation,
            P::Fullscreen,
            P::ChUaWow64,
            P::Autoplay,
            P::PictureInPicture,
        ];
        // (header, allow, top-level answers, framed answers) for `probes`.
        let cases = [
            (
                None,
                None,
                [true; 7],
                [false, false, false, false, false, false, true],
            ),
            (
                None,
                Some(ALLOW),
                [true; 7],
                [true, true, false, false, true, false, true],
            ),
            (
                Some(HEADER),
                None,
                [true, true, false, true, false, true, true],
                [false, false, false, false, false, false, true],
            ),
            (
                Some(HEADER),
                Some(ALLOW),
                [true, true, false, true, false, true, true],
                [false, true, false, false, false, false, true],
            ),
        ];
        let every: Vec<Permission> = registry::policy_controlled_permissions().collect();
        for behavior in [
            LocalSchemeBehavior::InheritParent,
            LocalSchemeBehavior::FreshPolicy,
        ] {
            let engine = PolicyEngine::new(behavior);
            for (header, allow, want_top, want_framed) in cases {
                let what = format!("{behavior:?} {header:?} {allow:?}");
                let parent = top(&engine, header);
                let by_header: Vec<Permission> = every
                    .iter()
                    .copied()
                    .filter(|&f| {
                        parent
                            .declared()
                            .get(f)
                            .is_none_or(|a| a.matches(parent.origin(), parent.origin(), None))
                    })
                    .collect();
                assert_eq!(parent.allowed_features(), by_header, "top-level {what}");

                let framed = embed(&engine, &parent, allow);
                let allow_attr = allow.map(parse_allow_attribute);
                let framing = FramingContext {
                    allow: allow_attr.as_ref(),
                    src_origin: Some(origin("https://iframe.com/")),
                };
                // The framed document declares nothing and every default
                // allowlist admits its own origin, so it may use exactly
                // what it inherited.
                let inherited: Vec<Permission> = every
                    .iter()
                    .copied()
                    .filter(|&f| engine.inherited_for(f, &parent, &framing, framed.origin()))
                    .collect();
                assert_eq!(framed.allowed_features(), inherited, "framed {what}");

                for (i, &f) in probes.iter().enumerate() {
                    assert_eq!(
                        parent.allowed_to_use(f),
                        want_top[i],
                        "top-level {f:?} {what}"
                    );
                    assert_eq!(
                        framed.allowed_to_use(f),
                        want_framed[i],
                        "framed {f:?} {what}"
                    );
                }

                let local = engine.document_for_frame(
                    &framed,
                    &FramingContext {
                        allow: None,
                        src_origin: None,
                    },
                    framed.origin().clone(),
                    DeclaredPolicy::default(),
                    true,
                );
                let want_local = match behavior {
                    LocalSchemeBehavior::InheritParent => &inherited,
                    LocalSchemeBehavior::FreshPolicy => &every,
                };
                assert_eq!(&local.allowed_features(), want_local, "local {what}");
            }
        }
    }

    /// Wildcard delegation keeps working after a redirect to another origin
    /// (the §5.2 LiveChat wildcard risk) while default-src does not.
    #[test]
    fn wildcard_delegation_survives_redirect() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, None);
        // Frame declared with src=https://widget.example but redirected to
        // https://evil.example.
        let redirected = origin("https://evil.example/");
        for (allow_value, expect) in [("camera *", true), ("camera", false)] {
            let allow = parse_allow_attribute(allow_value);
            let framing = FramingContext {
                allow: Some(&allow),
                src_origin: Some(origin("https://widget.example/")),
            };
            let child = engine.document_for_frame(
                &parent,
                &framing,
                redirected.clone(),
                DeclaredPolicy::default(),
                false,
            );
            assert_eq!(child.allowed_to_use(CAMERA), expect, "allow={allow_value}");
        }
    }
}
