//! Cooperative cancellation for statement execution.
//!
//! A [`CancelToken`] is a cheap, cloneable handle that an executor polls at
//! statement boundaries and inside its per-join loops. Tokens are installed
//! per thread ([`CancelToken::install`]) so the campaign supervisor can put a
//! wall-clock budget on a statement without threading a parameter through
//! every `DbmsConnector::execute` signature: `ExecContext::new` picks up the
//! current thread's token automatically.
//!
//! The default token ([`CancelToken::none`]) carries no state and its
//! `is_cancelled` check is a single `Option` discriminant test, so engines
//! pay nothing when no deadline is configured.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation handle: either inert (`none`) or backed by a
/// shared flag plus an optional wall-clock deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// The inert token: never cancelled, zero-cost to check.
    pub fn none() -> Self {
        CancelToken { inner: None }
    }

    /// A manually-cancellable token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that reports cancelled once `deadline` passes (or when
    /// [`CancelToken::cancel`] is called explicitly, whichever is first).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// Request cancellation. Inert tokens ignore this.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// True once the token has been cancelled or its deadline has passed.
    #[inline]
    pub(crate) fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.cancelled.load(Ordering::Relaxed)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// True when this token can ever report cancelled.
    #[cfg(test)]
    fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The token currently installed on this thread (inert if none is).
    pub fn current() -> CancelToken {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Install this token as the thread's current one for the lifetime of
    /// the returned guard; the previous token is restored on drop, so
    /// installations nest.
    pub fn install(&self) -> CancelGuard {
        let previous = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), self.clone()));
        CancelGuard { previous }
    }
}

thread_local! {
    static CURRENT: RefCell<CancelToken> = RefCell::new(CancelToken::none());
}

/// RAII guard restoring the previously installed [`CancelToken`] on drop.
#[derive(Debug)]
pub struct CancelGuard {
    previous: CancelToken,
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        let previous = std::mem::replace(&mut self.previous, CancelToken::none());
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inert_token_never_cancels() {
        let t = CancelToken::none();
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(!t.is_armed());
    }

    #[test]
    fn explicit_cancel_is_visible_through_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_in_the_past_reads_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(!CancelToken::current().is_armed());
        let outer = CancelToken::new();
        {
            let _g1 = outer.install();
            assert!(CancelToken::current().is_armed());
            let inner = CancelToken::with_deadline(Instant::now() + Duration::from_secs(1));
            {
                let _g2 = inner.install();
                inner.cancel();
                assert!(CancelToken::current().is_cancelled());
            }
            // Outer token restored, not cancelled.
            assert!(CancelToken::current().is_armed());
            assert!(!CancelToken::current().is_cancelled());
        }
        assert!(!CancelToken::current().is_armed());
    }
}
