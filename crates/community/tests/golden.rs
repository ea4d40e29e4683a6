//! Golden regression tests for the community metrics whose determinism is
//! structural (BTreeMap iteration in `entropy`): outputs are pinned
//! bit-for-bit with `f64::to_bits` hex constants, mirroring
//! `crates/graph/tests/golden.rs`.
//!
//! After an *intended* numerical change, regenerate the constants with:
//!
//! ```text
//! cargo test -p cpgan-community --test golden -- --ignored regenerate --nocapture
//! ```

use cpgan_community::metrics::{entropy, mutual_information, nmi};

/// Skewed three-community labels: sizes 30 / 20 / 10.
fn labels_x() -> Vec<usize> {
    (0..60)
        .map(|i| {
            if i < 30 {
                0
            } else if i < 50 {
                1
            } else {
                2
            }
        })
        .collect()
}

/// A coarser two-community view of the same nodes: sizes 30 / 30.
fn labels_y() -> Vec<usize> {
    (0..60).map(|i| usize::from(i >= 30)).collect()
}

/// `f64::to_bits` pins for the metric values (see module docs).
const ENTROPY_X_BITS: u64 = 0x3ff02eb63cff3f7f;
const ENTROPY_Y_BITS: u64 = 0x3fe62e42fefa39ef;
const MI_XY_BITS: u64 = 0x3fe62e42fefa39ef;
const NMI_XY_BITS: u64 = 0x3fea067866a22993;

#[test]
fn entropy_bits_are_pinned() {
    assert_eq!(
        entropy(&labels_x()).to_bits(),
        ENTROPY_X_BITS,
        "entropy(x) drifted: got {:016x} ({})",
        entropy(&labels_x()).to_bits(),
        entropy(&labels_x())
    );
    assert_eq!(
        entropy(&labels_y()).to_bits(),
        ENTROPY_Y_BITS,
        "entropy(y) drifted: got {:016x} ({})",
        entropy(&labels_y()).to_bits(),
        entropy(&labels_y())
    );
}

#[test]
fn mutual_information_and_nmi_bits_are_pinned() {
    let (x, y) = (labels_x(), labels_y());
    assert_eq!(
        mutual_information(&x, &y).to_bits(),
        MI_XY_BITS,
        "MI drifted: got {:016x} ({})",
        mutual_information(&x, &y).to_bits(),
        mutual_information(&x, &y)
    );
    assert_eq!(
        nmi(&x, &y).to_bits(),
        NMI_XY_BITS,
        "NMI drifted: got {:016x} ({})",
        nmi(&x, &y).to_bits(),
        nmi(&x, &y)
    );
}

#[test]
fn entropy_is_invariant_under_label_order() {
    // Permuting the *input order* must not change a single bit: the sum
    // runs in ascending label order regardless of encounter order.
    let x = labels_x();
    let mut reversed = x.clone();
    reversed.reverse();
    assert_eq!(entropy(&x).to_bits(), entropy(&reversed).to_bits());
}

#[test]
#[ignore = "prints current bits; run after an intended numerical change"]
fn regenerate() {
    let (x, y) = (labels_x(), labels_y());
    println!("ENTROPY_X_BITS: u64 = 0x{:016x};", entropy(&x).to_bits());
    println!("ENTROPY_Y_BITS: u64 = 0x{:016x};", entropy(&y).to_bits());
    println!(
        "MI_XY_BITS: u64 = 0x{:016x};",
        mutual_information(&x, &y).to_bits()
    );
    println!("NMI_XY_BITS: u64 = 0x{:016x};", nmi(&x, &y).to_bits());
}
