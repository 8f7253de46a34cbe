//! The encoder and the Galois tables are process-wide: every context of a
//! degree holds the same [`Arc`]s from [`TableCache::global`], and building
//! and dropping contexts adds no cache entry after the first. A context
//! that brought its own copies back would cost its tables again on every
//! set-up, which is what a harness leaking one context per set-up sees as
//! resident memory.

use std::sync::{Arc, Mutex, PoisonError};
use tensorfhe_ckks::context::TableCache;
use tensorfhe_ckks::{CkksContext, CkksParams};
use tensorfhe_ntt::NttAlgorithm;

/// The tests below count global cache entries, so they run one at a time
/// (a failed one leaves the lock poisoned, not the other test failing).
static SERIAL: Mutex<()> = Mutex::new(());

fn context(params: &CkksParams, algo: NttAlgorithm) -> CkksContext {
    CkksContext::with_algorithm(params, algo).expect("preset is valid")
}

#[test]
fn contexts_of_one_degree_share_encoder_and_galois_tables() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let params = CkksParams::test_small();
    let a = context(&params, NttAlgorithm::Butterfly);
    let b = context(&params, NttAlgorithm::FourStep);
    assert!(Arc::ptr_eq(a.encoder(), b.encoder()));
    assert!(Arc::ptr_eq(&a.galois_tables(5), &b.galois_tables(5)));

    let other = context(&CkksParams::toy(), NttAlgorithm::Butterfly);
    assert_ne!(other.params().n(), params.n());
    assert!(!Arc::ptr_eq(a.encoder(), other.encoder()));
    assert!(!Arc::ptr_eq(&a.galois_tables(5), &other.galois_tables(5)));
}

#[test]
fn context_churn_adds_no_cache_entries_after_the_first() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let params = CkksParams::toy();
    let slots = vec![tensorfhe_math::Complex64::one(); params.slots()];
    // Everything a set-up asks of the context's tables, handed back.
    let touch = || {
        let ctx = context(&params, NttAlgorithm::Butterfly);
        ctx.encode(&slots, params.scale()).expect("fits");
        (
            Arc::clone(ctx.encoder()),
            ctx.galois_tables(ctx.galois_element(1)),
            ctx.galois_tables(ctx.conjugation_element()),
        )
    };
    let first = touch();
    let cache = TableCache::global();
    let entries = (cache.len(), cache.galois_len());
    for _ in 0..100 {
        let (encoder, rotate, conjugate) = touch();
        assert!(Arc::ptr_eq(&encoder, &first.0));
        assert!(Arc::ptr_eq(&rotate, &first.1));
        assert!(Arc::ptr_eq(&conjugate, &first.2));
    }
    assert_eq!((cache.len(), cache.galois_len()), entries);
}
