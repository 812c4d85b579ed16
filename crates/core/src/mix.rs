//! The one seeded mixing function of the workspace.

/// The splitmix64 finalizer: a pure, well-mixed `u64 → u64` bijection.
///
/// Every seeded decision in the workspace — injected storage faults, link
/// loss and jitter — is a pure function of a seed and a counter or address
/// run through this function; independent draws use independent seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
