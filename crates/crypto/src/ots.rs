//! Hash-based one-time signatures: Lamport and Winternitz (WOTS).
//!
//! These replace elliptic-curve signatures in the SSI substitution (see
//! `DESIGN.md`): correct-by-construction from SHA-256, genuinely
//! unforgeable, and simple enough to implement from scratch with
//! confidence. Each key pair must sign **at most one** message — the
//! stateful wrapper in [`crate::mss`] lifts them to many-time keys.
//!
//! WOTS key generation, signing and verification hand all 67 chains of
//! a key to the crate-private `run_chains` at once, which runs them 16
//! in lockstep where the CPU has a kernel for it (see [`crate::sha256`])
//! and one after another through the one-chain function everywhere
//! else.

use rand::RngCore;

use crate::sha256::{self, Digest, Sha256};
use crate::CryptoError;

/// Winternitz parameter: digits are base-16 (4 bits per chain step).
pub const WOTS_W: usize = 16;
/// Number of message digits (256 bits / 4 bits per digit).
pub const WOTS_MSG_CHAINS: usize = 64;
/// Number of checksum digits: max checksum = 64 * 15 = 960 < 16^3.
pub const WOTS_CSUM_CHAINS: usize = 3;
/// Total chains per key.
pub const WOTS_CHAINS: usize = WOTS_MSG_CHAINS + WOTS_CSUM_CHAINS;

/// A Lamport one-time key pair (two 32-byte secrets per message bit).
///
/// Kept mainly as the pedagogically simplest scheme and for the E8
/// overhead comparison; WOTS is what [`crate::mss`] uses (16x smaller
/// signatures).
#[derive(Clone)]
pub struct LamportKeyPair {
    sk: Box<[[Digest; 2]; 256]>,
    pk: Box<[[Digest; 2]; 256]>,
    used: bool,
}

impl std::fmt::Debug for LamportKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LamportKeyPair")
            .field("used", &self.used)
            .finish_non_exhaustive()
    }
}

/// A Lamport signature: one revealed preimage per message bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LamportSignature {
    reveals: Vec<Digest>, // 256 entries
}

impl LamportKeyPair {
    /// Generates a key pair from an RNG.
    pub fn generate(rng: &mut dyn RngCore) -> Self {
        let mut sk = Box::new([[[0u8; 32]; 2]; 256]);
        let mut pk = Box::new([[[0u8; 32]; 2]; 256]);
        for i in 0..256 {
            for b in 0..2 {
                rng.fill_bytes(&mut sk[i][b]);
                pk[i][b] = Sha256::digest(&sk[i][b]);
            }
        }
        Self {
            sk,
            pk,
            used: false,
        }
    }

    /// Signs `message` (hashed internally). One-time: a second call fails.
    ///
    /// # Errors
    ///
    /// [`CryptoError::KeyExhausted`] if this key already signed.
    pub fn sign(&mut self, message: &[u8]) -> Result<LamportSignature, CryptoError> {
        if self.used {
            return Err(CryptoError::KeyExhausted);
        }
        self.used = true;
        let digest = Sha256::digest(message);
        let mut reveals = Vec::with_capacity(256);
        for i in 0..256 {
            let bit = (digest[i / 8] >> (7 - i % 8)) & 1;
            reveals.push(self.sk[i][bit as usize]);
        }
        Ok(LamportSignature { reveals })
    }

    /// Verifies `sig` over `message` against this key pair's public half.
    pub fn verify(&self, message: &[u8], sig: &LamportSignature) -> bool {
        if sig.reveals.len() != 256 {
            return false;
        }
        let digest = Sha256::digest(message);
        for i in 0..256 {
            let bit = (digest[i / 8] >> (7 - i % 8)) & 1;
            if Sha256::digest(&sig.reveals[i]) != self.pk[i][bit as usize] {
                return false;
            }
        }
        true
    }
}

/// Splits a digest into 64 base-16 digits plus 3 checksum digits.
fn wots_digits(digest: &Digest) -> [u8; WOTS_CHAINS] {
    let mut out = [0u8; WOTS_CHAINS];
    for (pair, byte) in out.chunks_mut(2).zip(digest.iter()) {
        pair[0] = byte >> 4;
        pair[1] = byte & 0x0f;
    }
    // Checksum: sum of (w-1 - digit); prevents forgery by advancing chains.
    let csum: u32 = out[..WOTS_MSG_CHAINS]
        .iter()
        .map(|&d| (WOTS_W as u32 - 1) - d as u32)
        .sum();
    out[WOTS_MSG_CHAINS] = ((csum >> 8) & 0x0f) as u8;
    out[WOTS_MSG_CHAINS + 1] = ((csum >> 4) & 0x0f) as u8;
    out[WOTS_MSG_CHAINS + 2] = (csum & 0x0f) as u8;
    out
}

/// Applies the WOTS chain function `n` times: `H(chain_idx || step || x)`
/// with positional domain separation so chains cannot be spliced.
///
/// On CPUs without a lockstep kernel [`run_chains`] runs every chain
/// through this one at a time; the tests pin the lanes to it.
pub(crate) fn chain(start: &Digest, chain_idx: usize, from_step: u8, steps: u8) -> Digest {
    let mut acc = *start;
    for s in 0..steps {
        let step = from_step + s;
        acc = Sha256::digest_parts(&[&[0x02], &(chain_idx as u16).to_be_bytes(), &[step], &acc]);
    }
    acc
}

/// One chain for [`run_chains`]: `value` runs `steps` steps of chain
/// `chain`, numbered from `start`, and `captured` takes the value after
/// the first `capture` of them. `capture <= steps < WOTS_W`, and `start +
/// steps` fits in the step byte. If `seeded`, `value` is a key seed, and
/// the chain starts at that key's secret for `chain` (see
/// [`WotsKeyPair::from_seed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChainJob {
    pub(crate) value: Digest,
    pub(crate) chain: u16,
    pub(crate) start: u8,
    pub(crate) steps: u8,
    pub(crate) capture: u8,
    pub(crate) seeded: bool,
    pub(crate) captured: Digest,
}

impl ChainJob {
    /// Chain `chain` from `value` at step `start`, for `steps` steps,
    /// capturing nothing.
    fn new(value: Digest, chain: usize, start: u8, steps: u8) -> Self {
        Self {
            value,
            chain: chain as u16,
            start,
            steps,
            ..Self::default()
        }
    }

    /// Chain `chain` of the key [`WotsKeyPair::from_seed`] derives from
    /// `seed`, from its secret to its head.
    fn seed_to_head(seed: Digest, chain: usize) -> Self {
        Self {
            seeded: true,
            ..Self::new(seed, chain, 0, (WOTS_W - 1) as u8)
        }
    }
}

/// Runs every job of `jobs`, 16 at a time in lockstep where the CPU has
/// a kernel for it, and one after another through [`chain`] everywhere
/// else.
pub(crate) fn run_chains(jobs: &mut [ChainJob]) {
    if !sha256::try_wots_chains(jobs) {
        jobs.iter_mut().for_each(run_one);
    }
}

/// Runs `job` through [`chain`]: up to its capture point, then on.
fn run_one(job: &mut ChainJob) {
    let idx = usize::from(job.chain);
    if job.seeded {
        job.value = seed_secret(&job.value, idx);
        job.seeded = false;
    }
    job.captured = chain(&job.value, idx, job.start, job.capture);
    job.value = chain(
        &job.captured,
        idx,
        job.start + job.capture,
        job.steps - job.capture,
    );
}

/// A WOTS public key: the 67 chain heads, plus a compact digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WotsPublicKey {
    heads: Vec<Digest>, // WOTS_CHAINS entries
}

impl WotsPublicKey {
    /// Compact commitment to the whole public key.
    pub fn digest(&self) -> Digest {
        heads_digest(&self.heads)
    }

    /// Verifies a WOTS signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &WotsSignature) -> bool {
        if sig.chains.len() != WOTS_CHAINS || self.heads.len() != WOTS_CHAINS {
            return false;
        }
        let digits = wots_digits(&Sha256::digest(message));
        // Chain `i` runs from its digit to the head. Ordered by digit,
        // each 16-lane group runs about as many steps as its chains need.
        let mut order: [usize; WOTS_CHAINS] = std::array::from_fn(|i| i);
        order.sort_unstable_by_key(|&i| digits[i]);
        let mut jobs = order.map(|i| {
            let remaining = (WOTS_W - 1) as u8 - digits[i];
            ChainJob::new(sig.chains[i], i, digits[i], remaining)
        });
        run_chains(&mut jobs);
        jobs.iter()
            .all(|job| job.value == self.heads[usize::from(job.chain)])
    }
}

/// The digest [`WotsPublicKey::digest`] commits to: all heads in order.
fn heads_digest<'a>(heads: impl IntoIterator<Item = &'a Digest>) -> Digest {
    let mut h = Sha256::new();
    for head in heads {
        h.update(head);
    }
    h.finalize()
}

/// Secret `i` of the key [`WotsKeyPair::from_seed`] derives from `seed`.
fn seed_secret(seed: &Digest, i: usize) -> Digest {
    Sha256::digest_parts(&[&[0x03], seed, &(i as u16).to_be_bytes()])
}

/// Public-key digests of the keys [`WotsKeyPair::from_seed`] derives
/// from each of `seeds`, with every chain of every key in one batch.
pub(crate) fn public_key_digests(seeds: &[Digest]) -> Vec<Digest> {
    let mut jobs: Vec<ChainJob> = seeds
        .iter()
        .flat_map(|&seed| (0..WOTS_CHAINS).map(move |i| ChainJob::seed_to_head(seed, i)))
        .collect();
    run_chains(&mut jobs);
    jobs.chunks_exact(WOTS_CHAINS)
        .map(|key| heads_digest(key.iter().map(|job| &job.value)))
        .collect()
}

/// Signs `message` with the key [`WotsKeyPair::from_seed`] derives from
/// `seed`, and returns that key's public half with the signature. Each
/// chain runs once, from its secret to its head, and leaves its
/// signature value on the way, at its digit.
pub(crate) fn sign_with_seed(seed: &Digest, message: &[u8]) -> (WotsPublicKey, WotsSignature) {
    let digits = wots_digits(&Sha256::digest(message));
    let mut jobs: Vec<ChainJob> = (0..WOTS_CHAINS)
        .map(|i| ChainJob {
            capture: digits[i],
            ..ChainJob::seed_to_head(*seed, i)
        })
        .collect();
    run_chains(&mut jobs);
    (
        WotsPublicKey {
            heads: jobs.iter().map(|job| job.value).collect(),
        },
        WotsSignature {
            chains: jobs.iter().map(|job| job.captured).collect(),
        },
    )
}

/// A WOTS signature: one intermediate chain value per digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WotsSignature {
    chains: Vec<Digest>, // WOTS_CHAINS entries
}

impl WotsSignature {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.chains.len() * 32
    }
}

/// A WOTS one-time key pair.
///
/// # Example
///
/// ```
/// use autosec_crypto::WotsKeyPair;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut kp = WotsKeyPair::generate(&mut rng);
/// let pk = kp.public_key().clone();
/// let sig = kp.sign(b"hello").unwrap();
/// assert!(pk.verify(b"hello", &sig));
/// assert!(!pk.verify(b"tampered", &sig));
/// assert!(kp.sign(b"again").is_err()); // one-time!
/// ```
#[derive(Clone)]
pub struct WotsKeyPair {
    sk: Vec<Digest>,
    pk: WotsPublicKey,
    used: bool,
}

impl std::fmt::Debug for WotsKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WotsKeyPair")
            .field("used", &self.used)
            .finish_non_exhaustive()
    }
}

impl WotsKeyPair {
    /// Generates a key pair from an RNG.
    pub fn generate(rng: &mut dyn RngCore) -> Self {
        let sk = (0..WOTS_CHAINS)
            .map(|_| {
                let mut secret = [0u8; 32];
                rng.fill_bytes(&mut secret);
                secret
            })
            .collect();
        Self::from_secrets(sk)
    }

    /// Deterministic generation from a 32-byte seed (used by [`crate::mss`]
    /// so leaves can be regenerated instead of stored).
    pub fn from_seed(seed: &Digest) -> Self {
        Self::from_secrets((0..WOTS_CHAINS).map(|i| seed_secret(seed, i)).collect())
    }

    fn from_secrets(sk: Vec<Digest>) -> Self {
        let top = (WOTS_W - 1) as u8;
        let mut jobs: Vec<ChainJob> = (sk.iter().enumerate())
            .map(|(i, &secret)| ChainJob::new(secret, i, 0, top))
            .collect();
        run_chains(&mut jobs);
        let heads = jobs.iter().map(|job| job.value).collect();
        Self {
            sk,
            pk: WotsPublicKey { heads },
            used: false,
        }
    }

    /// The public half.
    pub fn public_key(&self) -> &WotsPublicKey {
        &self.pk
    }

    /// Signs `message` (hashed internally). One-time: second call fails.
    ///
    /// # Errors
    ///
    /// [`CryptoError::KeyExhausted`] if this key already signed.
    pub fn sign(&mut self, message: &[u8]) -> Result<WotsSignature, CryptoError> {
        if self.used {
            return Err(CryptoError::KeyExhausted);
        }
        self.used = true;
        let digits = wots_digits(&Sha256::digest(message));
        let mut jobs: Vec<ChainJob> = (self.sk.iter().zip(digits).enumerate())
            .map(|(i, (&secret, digit))| ChainJob::new(secret, i, 0, digit))
            .collect();
        run_chains(&mut jobs);
        let chains = jobs.iter().map(|job| job.value).collect();
        Ok(WotsSignature { chains })
    }
}

#[cfg(test)]
impl WotsKeyPair {
    /// [`WotsKeyPair::sign`] one chain at a time through [`chain`],
    /// without the one-time guard: the reference the batched signers are
    /// checked against.
    pub(crate) fn sign_chain_by_chain(&self, message: &[u8]) -> WotsSignature {
        let digits = wots_digits(&Sha256::digest(message));
        let chains = (0..WOTS_CHAINS)
            .map(|i| chain(&self.sk[i], i, 0, digits[i]))
            .collect();
        WotsSignature { chains }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn lamport_round_trip() {
        let mut kp = LamportKeyPair::generate(&mut rng());
        let sig = kp.sign(b"message").unwrap();
        assert!(kp.verify(b"message", &sig));
        assert!(!kp.verify(b"other", &sig));
    }

    #[test]
    fn lamport_is_one_time() {
        let mut kp = LamportKeyPair::generate(&mut rng());
        kp.sign(b"first").unwrap();
        assert_eq!(kp.sign(b"second").unwrap_err(), CryptoError::KeyExhausted);
    }

    #[test]
    fn lamport_rejects_bitflipped_signature() {
        let mut kp = LamportKeyPair::generate(&mut rng());
        let mut sig = kp.sign(b"m").unwrap();
        sig.reveals[0][0] ^= 1;
        assert!(!kp.verify(b"m", &sig));
    }

    #[test]
    fn wots_round_trip() {
        let mut kp = WotsKeyPair::generate(&mut rng());
        let pk = kp.public_key().clone();
        let sig = kp.sign(b"v2x message").unwrap();
        assert!(pk.verify(b"v2x message", &sig));
        assert!(!pk.verify(b"v2x messagf", &sig));
    }

    #[test]
    fn lockstep_signatures_match_the_chain_by_chain_reference() {
        for seed in 0..8 {
            let mut kp = WotsKeyPair::generate(&mut StdRng::seed_from_u64(seed));
            let msg = format!("message {seed}");
            let want = kp.sign_chain_by_chain(msg.as_bytes());
            let (pk, sig) = sign_with_seed(&[seed as u8; 32], msg.as_bytes());
            let seeded = WotsKeyPair::from_seed(&[seed as u8; 32]);
            assert_eq!(pk, *seeded.public_key(), "seed {seed}");
            assert_eq!(
                sig,
                seeded.sign_chain_by_chain(msg.as_bytes()),
                "seed {seed}"
            );
            assert!(pk.verify(msg.as_bytes(), &sig));
            assert_eq!(kp.sign(msg.as_bytes()).unwrap(), want, "seed {seed}");
            assert!(kp.public_key().verify(msg.as_bytes(), &want));
        }
    }

    #[test]
    fn one_chain_fallback_captures_on_the_way() {
        let mut rng = rng();
        for start in 0..=15u8 {
            for steps in 0..=15 - start {
                for capture in 0..=steps {
                    let mut value = [0u8; 32];
                    rng.fill_bytes(&mut value);
                    let chain_idx = usize::from(start) * 16 + usize::from(steps);
                    for seeded in [false, true] {
                        let mut job = ChainJob {
                            capture,
                            seeded,
                            ..ChainJob::new(value, chain_idx, start, steps)
                        };
                        run_one(&mut job);
                        let first = if seeded {
                            seed_secret(&value, chain_idx)
                        } else {
                            value
                        };
                        assert_eq!(job.value, chain(&first, chain_idx, start, steps));
                        assert_eq!(job.captured, chain(&first, chain_idx, start, capture));
                    }
                }
            }
        }
    }

    #[test]
    fn wots_rejects_each_tampered_chain() {
        // Every chain is checked, whichever 16-lane group its digit
        // sorts it into.
        let mut kp = WotsKeyPair::generate(&mut rng());
        let pk = kp.public_key().clone();
        let sig = kp.sign(b"m").unwrap();
        for i in 0..WOTS_CHAINS {
            let mut bad = sig.clone();
            bad.chains[i][31] ^= 1;
            assert!(!pk.verify(b"m", &bad), "chain {i}");
        }
        let mut short = sig.clone();
        short.chains.pop();
        assert!(!pk.verify(b"m", &short));
    }

    #[test]
    fn wots_is_one_time() {
        let mut kp = WotsKeyPair::generate(&mut rng());
        kp.sign(b"a").unwrap();
        assert!(kp.sign(b"b").is_err());
    }

    #[test]
    fn wots_seed_is_deterministic() {
        let seed = [9u8; 32];
        let a = WotsKeyPair::from_seed(&seed);
        let b = WotsKeyPair::from_seed(&seed);
        assert_eq!(a.public_key(), b.public_key());
        let c = WotsKeyPair::from_seed(&[10u8; 32]);
        assert_ne!(a.public_key(), c.public_key());
    }

    #[test]
    fn wots_signature_tamper_rejected() {
        let mut kp = WotsKeyPair::generate(&mut rng());
        let pk = kp.public_key().clone();
        let mut sig = kp.sign(b"m").unwrap();
        sig.chains[10][5] ^= 0x40;
        assert!(!pk.verify(b"m", &sig));
    }

    #[test]
    fn wots_digits_checksum_bounds() {
        // All-zero digest: checksum = 64*15 = 960 = 0x3C0.
        let digits = wots_digits(&[0u8; 32]);
        assert_eq!(&digits[WOTS_MSG_CHAINS..], &[0x3, 0xC, 0x0]);
        // All-0xF digest: checksum 0.
        let digits = wots_digits(&[0xff; 32]);
        assert_eq!(&digits[WOTS_MSG_CHAINS..], &[0, 0, 0]);
    }

    #[test]
    fn wots_signature_size_is_compact() {
        let mut kp = WotsKeyPair::generate(&mut rng());
        let sig = kp.sign(b"m").unwrap();
        // 2144 bytes, against 256 revealed 32-byte digests for Lamport.
        assert_eq!(sig.byte_len(), WOTS_CHAINS * 32);
        assert!(sig.byte_len() < 256 * 32 / 3);
    }

    #[test]
    fn wots_cross_key_verification_fails() {
        let mut kp1 = WotsKeyPair::generate(&mut StdRng::seed_from_u64(1));
        let kp2 = WotsKeyPair::generate(&mut StdRng::seed_from_u64(2));
        let sig = kp1.sign(b"m").unwrap();
        assert!(!kp2.public_key().verify(b"m", &sig));
    }

    #[test]
    fn public_key_digest_is_stable() {
        let kp = WotsKeyPair::from_seed(&[1u8; 32]);
        assert_eq!(kp.public_key().digest(), kp.public_key().digest());
    }
}
