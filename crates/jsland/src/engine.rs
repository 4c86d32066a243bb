//! The engine seam: the calls an embedder makes on a per-document
//! script engine.
//!
//! The bytecode [`Vm`] is the engine pages run on. The tree-walking
//! [`Interpreter`] implements the same trait so tests can drive a whole
//! page through the reference and compare bytes (the browser-level gate
//! in `crates/difftest`); both engines implement identical observable
//! semantics.

use crate::host::{HostHooks, ScriptSource};
use crate::interp::{Interpreter, PendingHandler, RunError, StepPool};
use crate::vm::Vm;

/// A per-document script engine. `Default` builds one with the default
/// per-run step budget.
pub trait Engine: Default {
    /// An engine with a custom per-run step budget.
    fn with_budget(budget: u64) -> Self;

    /// Runs a script against a shared page-wide [`StepPool`].
    fn run_pooled(
        &mut self,
        source: &str,
        script: ScriptSource,
        hooks: &mut dyn HostHooks,
        pool: &mut StepPool,
    ) -> Result<(), RunError>;

    /// Runs queued timers against a shared pool; `false` when the pool
    /// ran dry and pending timers were dropped.
    fn drain_timers_pooled(&mut self, hooks: &mut dyn HostHooks, pool: &mut StepPool) -> bool;

    /// Fires registered handlers for `event`; returns how many ran.
    fn fire_event(&mut self, event: &str, hooks: &mut dyn HostHooks) -> usize;

    /// Handlers registered and not yet fired.
    fn handlers(&self) -> &[PendingHandler];
}

macro_rules! impl_engine {
    ($engine:ty) => {
        impl Engine for $engine {
            fn with_budget(budget: u64) -> Self {
                <$engine>::with_budget(budget)
            }

            fn run_pooled(
                &mut self,
                source: &str,
                script: ScriptSource,
                hooks: &mut dyn HostHooks,
                pool: &mut StepPool,
            ) -> Result<(), RunError> {
                <$engine>::run_pooled(self, source, script, hooks, pool)
            }

            fn drain_timers_pooled(
                &mut self,
                hooks: &mut dyn HostHooks,
                pool: &mut StepPool,
            ) -> bool {
                <$engine>::drain_timers_pooled(self, hooks, pool)
            }

            fn fire_event(&mut self, event: &str, hooks: &mut dyn HostHooks) -> usize {
                <$engine>::fire_event(self, event, hooks)
            }

            fn handlers(&self) -> &[PendingHandler] {
                &self.handlers
            }
        }
    };
}

impl_engine!(Vm);
impl_engine!(Interpreter);
