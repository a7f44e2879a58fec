//! Cooperative cancellation for expensive pipeline stages.
//!
//! A [`CancelToken`] carries an optional deadline and an explicit cancel
//! flag, and is checked *between* units of work — permutation chunks,
//! mining phases — never inside them.  That keeps the hot loops branch-free
//! and makes cancellation points explicit: a cancelled query stops at the
//! next chunk boundary, typically within one chunk's worth of work.
//!
//! Tokens form a chain: a child created with [`CancelToken::child`] or
//! [`CancelToken::child_with_deadline`] observes its parent's cancellation
//! (a dead connection cancels every request it had in flight) while adding
//! its own per-request deadline.  [`CancelToken::none`] is a zero-cost
//! never-cancelled token for call sites that do not participate — a
//! [`Query`](crate::engine::Query) carries it by default, and the one-shot
//! CLI commands and existing infallible entry points use it, so their
//! behavior (and their answers) are untouched.
//!
//! ```
//! use sigrule::cancel::{CancelReason, CancelToken};
//! use std::time::Duration;
//!
//! let token = CancelToken::new();
//! assert!(token.check().is_ok());
//! token.cancel();
//! assert_eq!(token.check().unwrap_err().reason, CancelReason::Cancelled);
//!
//! let deadline = CancelToken::with_deadline(Duration::from_millis(0));
//! assert_eq!(
//!     deadline.check().unwrap_err().reason,
//!     CancelReason::DeadlineExceeded
//! );
//! ```

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a cancelled operation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The token's deadline passed before the work finished.
    DeadlineExceeded,
    /// The token (or an ancestor) was cancelled explicitly — e.g. the
    /// requesting connection died.
    Cancelled,
}

/// The error an expensive operation returns when its token fires.  Carries
/// the [`CancelReason`] so callers can map deadlines and explicit cancels
/// to different protocol errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// Why the operation stopped.
    pub reason: CancelReason,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            CancelReason::Cancelled => write!(f, "operation cancelled"),
        }
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    parent: CancelToken,
}

/// A cancellation token: deadline + explicit cancel, checked cooperatively
/// between work units.  Cloning is cheap (an `Arc` bump) and every clone
/// observes the same cancellation.  The default token ([`CancelToken::none`])
/// never fires and costs nothing to check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// The never-cancelled token: zero allocation, `check` always `Ok`.
    pub const fn none() -> Self {
        CancelToken { inner: None }
    }

    /// A cancellable token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: CancelToken::none(),
            })),
        }
    }

    /// A token that fires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken::none().child_with_deadline(timeout)
    }

    /// A child token: fires when `self` fires or when it is cancelled
    /// itself.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: self.clone(),
            })),
        }
    }

    /// A child token that additionally fires `timeout` from now.
    pub fn child_with_deadline(&self, timeout: Duration) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
                parent: self.clone(),
            })),
        }
    }

    /// Cancels this token (and so every child chained to it).  A no-op on
    /// [`CancelToken::none`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, SeqCst);
        }
    }

    /// `Err` once the token has fired — explicitly, by deadline, or through
    /// an ancestor.  Deadline beats explicit cancel when both apply, so a
    /// timed-out request reports `deadline_exceeded` even if its connection
    /// also died.
    pub fn check(&self) -> Result<(), Cancelled> {
        let mut token = self;
        while let Some(inner) = &token.inner {
            if let Some(deadline) = inner.deadline {
                if Instant::now() >= deadline {
                    return Err(Cancelled {
                        reason: CancelReason::DeadlineExceeded,
                    });
                }
            }
            if inner.cancelled.load(SeqCst) {
                return Err(Cancelled {
                    reason: CancelReason::Cancelled,
                });
            }
            token = &inner.parent;
        }
        Ok(())
    }

    /// True once the token has fired (see [`check`](CancelToken::check)).
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_fires() {
        let token = CancelToken::none();
        token.cancel();
        assert!(token.check().is_ok());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn explicit_cancel_fires_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(clone.check().is_ok());
        token.cancel();
        assert_eq!(clone.check().unwrap_err().reason, CancelReason::Cancelled);
    }

    #[test]
    fn deadline_fires_after_timeout() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(token.check().is_ok());
        let expired = CancelToken::with_deadline(Duration::from_millis(0));
        assert_eq!(
            expired.check().unwrap_err().reason,
            CancelReason::DeadlineExceeded
        );
    }

    #[test]
    fn child_observes_parent_cancel_and_adds_its_own_deadline() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Duration::from_secs(3600));
        assert!(child.check().is_ok());
        parent.cancel();
        assert_eq!(child.check().unwrap_err().reason, CancelReason::Cancelled);

        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Duration::from_millis(0));
        // The child's own deadline fires without touching the parent.
        assert_eq!(
            child.check().unwrap_err().reason,
            CancelReason::DeadlineExceeded
        );
        assert!(parent.check().is_ok());
    }

    #[test]
    fn deadline_wins_over_explicit_cancel() {
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        token.cancel();
        assert_eq!(
            token.check().unwrap_err().reason,
            CancelReason::DeadlineExceeded
        );
    }
}
