//! Price lists and physical constants.
//!
//! §7: "We set the cost values input to the experiments for cloud
//! providers based on the listings of the most common cloud providers
//! on the market (e.g., Amazon S3, Google Compute Engine). We
//! considered … a relatively high cost for the direct involvement of
//! the user and of data authorities, which are 10 times and 3 times,
//! respectively, the cpu processing cost of cloud providers. … The
//! network configuration assumed the authorities controlling the data
//! and the cloud providers to be connected by high-bandwidth (10Gbps)
//! connections; the client was assumed to be connected to both with a
//! lower-bandwidth (100Mbps) connection."
//!
//! # Calibration status
//!
//! The execution-dependent constants below are **fitted against
//! measured execution** by `mpq-bench --bin calibrate`, which replays
//! the Figure 9/10 workloads through `mpq-exec`/`mpq-dist` and times
//! the crypto substrate value-by-value (see `CALIBRATION.json` and the
//! README's calibration section). The paper's quoted ratios are held
//! fixed as exact constraints: user CPU = 10× and authority CPU = 3×
//! the provider price, 10 Gbps backbone, 100 Mbps client link.
//! Network transfer is priced **per edge**: any edge with the user as
//! an endpoint rides the client link and pays the internet-egress rate
//! (`CLIENT_NET_PER_GB`); edges between authorities and providers
//! ride the backbone at `PROVIDER_NET_PER_GB`. (The pre-calibration
//! book priced every edge at the sender's backbone rate, which made
//! shipping intermediates to the user essentially free and was the
//! single largest source of the Figure 10 gap.)
//!
//! With the calibrated book the reproduction's Figure 10 reports
//! cumulative savings versus UA of **55.2% (UAPenc)** and **77.0%
//! (UAPmix)** at SF 1, against the paper's 54.2% and 71.3% (exact
//! pinned values in `mpq-bench`'s `figure10_pin` test). UAPenc is
//! a point from the paper. UAPmix used to *overshoot* at 88.5%
//! because the first reconstructed mix scenario put every join key in
//! the providers' plaintext half, letting providers execute almost the
//! whole workload crypto-free. The split was then **searched** rather
//! than guessed (`mpq-fuzz --bin search_split`): join keys always stay
//! encrypted, and each relation fills its plaintext half from either
//! the head or the tail of its column order — the measured-minimum
//! assignment (head-fill `part` and `supplier`) is committed as
//! `scenario::UAPMIX_HEAD_FILL`, which read 75.0% when it was chosen.
//! Both savings rose by about two points when the symmetric ciphers
//! got ~7× cheaper (`calibrated::SYM_ENC_SECS`): delegation is paid
//! for in the authority's encryption. The residual ~5.7-point gap is
//! attributed to the paper's attribute split, which was never
//! published, and to its slower symmetric cipher. The pin exists so any further drift is deliberate:
//! recalibrate with `cargo run -p mpq-bench --bin calibrate --release`
//! and update the pin in the same change.

use mpq_algebra::value::EncScheme;
use mpq_algebra::SubjectId;
use mpq_core::subjects::{SubjectKind, Subjects};
use std::collections::{HashMap, HashSet};

/// Prices for one subject.
#[derive(Clone, Copy, Debug)]
pub struct SubjectPrices {
    /// USD per CPU-second.
    pub cpu_per_sec: f64,
    /// USD per GB of local I/O.
    pub io_per_gb: f64,
    /// USD per GB sent over the network (backbone rate; user edges are
    /// priced by `PriceBook::net_price`).
    pub net_per_gb: f64,
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
}

/// Baseline provider prices (the cheapest provider).
const PROVIDER_CPU_PER_SEC: f64 = 1.4e-5; // ≈ $0.05 per CPU-hour
/// Provider local I/O price.
const PROVIDER_IO_PER_GB: f64 = 4.0e-4;
/// Inter-provider/authority network price per GB (backbone edges).
const PROVIDER_NET_PER_GB: f64 = 0.0005;
/// Internet-egress price per GB: any transfer with the user as an
/// endpoint (the 100 Mbps client link) is billed at this rate.
const CLIENT_NET_PER_GB: f64 = 0.09;
/// High-bandwidth links between authorities and providers (10 Gbps).
const BACKBONE_BPS: f64 = 10e9;
/// Client link (100 Mbps).
const CLIENT_BPS: f64 = 100e6;

/// §7 multipliers.
const USER_CPU_MULTIPLIER: f64 = 10.0;
/// Data-authority CPU multiplier (government-backed price lists).
const AUTHORITY_CPU_MULTIPLIER: f64 = 3.0;

/// Calibrated execution constants (fitted by `mpq-bench --bin
/// calibrate` on the reproduction's own engine and crypto substrate;
/// see `CALIBRATION.json`).
pub mod calibrated {
    /// Seconds of CPU per basic tuple operation (scan/probe/emit),
    /// fitted by least squares over `mpq-exec` replays of the TPC-H
    /// workload (modeled tuple ops vs measured seconds).
    pub const TUPLE_OP_SECS: f64 = 2.1e-7;
    /// Symmetric (XTEA det/rnd) per-value encryption seconds, via the
    /// column path the engine uses: key schedules set up per column,
    /// every cell written into one ciphertext buffer, the buffer
    /// encrypted eight independent blocks at a time. Moved from 5.2e-7
    /// (one cell at a time through four allocations) to the re-fitted
    /// value: `rank_agreement` stayed 100 % and CostDp's TPC-H
    /// assignments did not move (`planner.model_cost` on the
    /// crypto-free `authority_scan` workload is bit-identical), while
    /// the Figure 10 UAPenc saving widened by a point — cheaper
    /// encryption makes delegation cheaper, as §7 argues — and its
    /// pins moved with it.
    pub(super) const SYM_ENC_SECS: f64 = 7.0e-8;
    /// Symmetric per-value decryption seconds (still one block after
    /// another: a cell is decrypted where a key holder receives a
    /// result, thousands per query, not hundreds of thousands).
    pub(super) const SYM_DEC_SECS: f64 = 3.9e-7;
    /// OPE per-value encryption seconds: the *uncached* 64-level
    /// descent on the one-block SipHash kernel (`calibrate`'s sample is
    /// an all-distinct column, so the batch encryptor's memo never
    /// hits and its resume skips little; date and low-cardinality
    /// columns run 5–30× below this). Moved from 2.1e-6 to the
    /// re-fitted value: `figure10_pin`, `rank_agreement` (100 %) and
    /// CostDp's TPC-H assignments (`planner.model_cost`) did not move.
    pub(super) const OPE_ENC_SECS: f64 = 9.0e-7;
    /// OPE per-value decryption seconds (the same descent, one PRF
    /// call per level, choosing by comparison instead of a code bit;
    /// moved from 3.8e-6 under the same checks).
    pub(super) const OPE_DEC_SECS: f64 = 1.2e-6;
    /// Paillier-512 per-value encryption seconds on the in-tree bignum,
    /// by the key holder's path every encryptor takes
    /// (`PaillierKeypair::encrypt`: two 256-bit exponents over the
    /// 8-limb `p²`/`q²` on the allocation-free Montgomery kernel,
    /// CRT-combined) — 5× below the public-key routine's 3.9e-4 and
    /// ~800× below the pre-Montgomery 6.3e-2; production libraries are
    /// faster still, which would only widen the savings the optimizer
    /// finds.
    pub(super) const PAILLIER_ENC_SECS: f64 = 8.0e-5;
    /// Paillier-512 per-value decryption seconds.
    pub(super) const PAILLIER_DEC_SECS: f64 = 4.4e-4;
    /// Seconds per homomorphic (Paillier) ciphertext addition (one
    /// Montgomery product under the cached `n²` context).
    pub const PAILLIER_ADD_SECS: f64 = 2.0e-6;
}

/// The full price book: per-subject prices plus crypto constants.
#[derive(Clone, Debug)]
pub struct PriceBook {
    prices: HashMap<SubjectId, SubjectPrices>,
    /// Subjects on the client side of the network (their edges ride
    /// the 100 Mbps link and pay internet egress).
    users: HashSet<SubjectId>,
    /// Seconds of CPU per basic tuple operation (scan/probe/emit).
    pub(crate) tuple_op_secs: f64,
    /// Seconds per homomorphic (Paillier) ciphertext addition.
    pub(crate) paillier_add_secs: f64,
    /// Multiplier on tuple cost for user-defined functions (the paper:
    /// "udfs are typically computationally-intensive").
    pub(crate) udf_multiplier: f64,
}

impl PriceBook {
    /// Build the §7 configuration: providers at `provider_factor[i]` ×
    /// base price (different providers quote different prices — that
    /// spread is what the optimizer exploits), authorities at 3×, the
    /// user at 10×, client behind a 100 Mbps link.
    pub fn paper_defaults(subjects: &Subjects, provider_factors: &[f64]) -> PriceBook {
        let mut prices = HashMap::new();
        let mut users = HashSet::new();
        let mut provider_idx = 0usize;
        for s in subjects.iter() {
            let p = match subjects.kind(s) {
                SubjectKind::Provider => {
                    let f = provider_factors.get(provider_idx).copied().unwrap_or(1.0);
                    provider_idx += 1;
                    SubjectPrices {
                        cpu_per_sec: PROVIDER_CPU_PER_SEC * f,
                        io_per_gb: PROVIDER_IO_PER_GB * f,
                        net_per_gb: PROVIDER_NET_PER_GB,
                        bandwidth_bps: BACKBONE_BPS,
                    }
                }
                SubjectKind::DataAuthority => SubjectPrices {
                    cpu_per_sec: PROVIDER_CPU_PER_SEC * AUTHORITY_CPU_MULTIPLIER,
                    io_per_gb: PROVIDER_IO_PER_GB,
                    net_per_gb: PROVIDER_NET_PER_GB,
                    bandwidth_bps: BACKBONE_BPS,
                },
                SubjectKind::User => {
                    users.insert(s);
                    SubjectPrices {
                        cpu_per_sec: PROVIDER_CPU_PER_SEC * USER_CPU_MULTIPLIER,
                        io_per_gb: PROVIDER_IO_PER_GB,
                        net_per_gb: CLIENT_NET_PER_GB,
                        bandwidth_bps: CLIENT_BPS,
                    }
                }
            };
            prices.insert(s, p);
        }
        PriceBook {
            prices,
            users,
            tuple_op_secs: calibrated::TUPLE_OP_SECS,
            paillier_add_secs: calibrated::PAILLIER_ADD_SECS,
            udf_multiplier: 100.0,
        }
    }

    /// Prices of a subject.
    pub fn of(&self, s: SubjectId) -> SubjectPrices {
        self.prices
            .get(&s)
            .copied()
            .expect("every subject has prices")
    }

    /// USD per GB for a transfer from `sender` to `receiver`, priced
    /// by the edge it rides: any edge touching the user crosses the
    /// client link and pays internet egress; authority/provider edges
    /// stay on the backbone at the sender's rate.
    pub(crate) fn net_price(&self, sender: SubjectId, receiver: SubjectId) -> f64 {
        if self.users.contains(&sender) || self.users.contains(&receiver) {
            CLIENT_NET_PER_GB
        } else {
            self.of(sender).net_per_gb
        }
    }

    /// CPU seconds to encrypt one value under a scheme (measured on the
    /// in-tree substrate by `calibrate`: XTEA symmetric, OPE's PRF
    /// walk, a key holder's Paillier-512 encryption).
    pub fn encrypt_secs(&self, scheme: EncScheme) -> f64 {
        match scheme {
            EncScheme::Deterministic | EncScheme::Random => calibrated::SYM_ENC_SECS,
            EncScheme::Ope => calibrated::OPE_ENC_SECS,
            EncScheme::Paillier => calibrated::PAILLIER_ENC_SECS,
        }
    }

    /// CPU seconds to decrypt one value.
    pub fn decrypt_secs(&self, scheme: EncScheme) -> f64 {
        match scheme {
            EncScheme::Deterministic | EncScheme::Random => calibrated::SYM_DEC_SECS,
            EncScheme::Ope => calibrated::OPE_DEC_SECS,
            EncScheme::Paillier => calibrated::PAILLIER_DEC_SECS,
        }
    }

    /// Ciphertext width in bytes for a plaintext of `plain_width`
    /// bytes ("our implementation also considered the increase in size
    /// that may derive from the application of encryption"). The
    /// formulas reproduce the measured widths of the in-tree cell
    /// encodings (`calibrate` cross-checks them).
    pub fn ciphertext_width(&self, scheme: EncScheme, plain_width: f64) -> f64 {
        match scheme {
            // Length prefix + block padding.
            EncScheme::Deterministic => ((plain_width + 5.0) / 8.0).ceil() * 8.0,
            // Nonce + payload.
            EncScheme::Random => plain_width + 9.0,
            // Tag + 128-bit order code.
            EncScheme::Ope => 17.0,
            // Tag + kind + count + ciphertext mod n² (512-bit n).
            EncScheme::Paillier => 10.0 + 128.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_core::subjects::Subjects;

    fn subjects() -> Subjects {
        let mut s = Subjects::new();
        s.add("A1", SubjectKind::DataAuthority);
        s.add("U", SubjectKind::User);
        s.add("X", SubjectKind::Provider);
        s.add("Y", SubjectKind::Provider);
        s
    }

    #[test]
    fn paper_multipliers_hold() {
        let subs = subjects();
        let book = PriceBook::paper_defaults(&subs, &[1.0, 1.5]);
        let u = book.of(subs.id("U").unwrap());
        let a = book.of(subs.id("A1").unwrap());
        let x = book.of(subs.id("X").unwrap());
        let y = book.of(subs.id("Y").unwrap());
        assert!((u.cpu_per_sec / x.cpu_per_sec - 10.0).abs() < 1e-9);
        assert!((a.cpu_per_sec / x.cpu_per_sec - 3.0).abs() < 1e-9);
        assert!((y.cpu_per_sec / x.cpu_per_sec - 1.5).abs() < 1e-9);
        assert_eq!(u.bandwidth_bps, CLIENT_BPS);
        assert_eq!(x.bandwidth_bps, BACKBONE_BPS);
    }

    #[test]
    fn user_edges_pay_internet_egress() {
        let subs = subjects();
        let book = PriceBook::paper_defaults(&subs, &[1.0]);
        let u = subs.id("U").unwrap();
        let a = subs.id("A1").unwrap();
        let x = subs.id("X").unwrap();
        // Either direction over the client link is egress-priced.
        assert_eq!(book.net_price(a, u), CLIENT_NET_PER_GB);
        assert_eq!(book.net_price(u, a), CLIENT_NET_PER_GB);
        // Backbone edges stay at the cheap rate.
        assert_eq!(book.net_price(a, x), PROVIDER_NET_PER_GB);
        assert_eq!(book.net_price(x, a), PROVIDER_NET_PER_GB);
    }

    #[test]
    fn crypto_cost_ordering() {
        let subs = subjects();
        let book = PriceBook::paper_defaults(&subs, &[1.0]);
        assert!(book.encrypt_secs(EncScheme::Deterministic) < book.encrypt_secs(EncScheme::Ope));
        assert!(book.encrypt_secs(EncScheme::Ope) < book.encrypt_secs(EncScheme::Paillier));
    }

    #[test]
    fn ciphertext_expansion() {
        let subs = subjects();
        let book = PriceBook::paper_defaults(&subs, &[1.0]);
        assert!(book.ciphertext_width(EncScheme::Deterministic, 8.0) >= 8.0);
        assert_eq!(book.ciphertext_width(EncScheme::Ope, 8.0), 17.0);
        assert!(book.ciphertext_width(EncScheme::Paillier, 8.0) > 100.0);
    }
}
