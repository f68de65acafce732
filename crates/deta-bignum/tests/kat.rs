//! Known answers for division and modular exponentiation.
//!
//! Every expected value here was recorded with the binary long division
//! and bit-serial Montgomery ladder this crate had before Algorithm D and
//! the windowed exponentiation replaced them. A quotient and a modular
//! power each have one right answer, so a faster algorithm must
//! reproduce every row bit for bit.

use deta_bignum::{BigUint, MontgomeryCtx};

/// Parses big-endian hexadecimal (any number of digits).
fn hex(s: &str) -> BigUint {
    let padded = if s.len() % 2 == 1 {
        format!("0{s}")
    } else {
        s.to_string()
    };
    let bytes: Vec<u8> = (0..padded.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&padded[i..i + 2], 16).unwrap())
        .collect();
    BigUint::from_bytes_be(&bytes)
}

/// One division: `a = q * d + r`, every value big-endian hex.
struct Division {
    name: &'static str,
    a: &'static str,
    d: &'static str,
    q: &'static str,
    r: &'static str,
}

/// Algorithm D's corner cases, then the dividend's position relative to
/// the divisor. Limb boundaries are every 16 hex digits from the right.
const DIVISIONS: &[Division] = &[
    // The divisor's top limb is all ones, so normalisation shifts
    // nothing; the top two dividend limbs over it estimate a quotient
    // limb two too large, and step D3 takes both of its corrections.
    Division {
        name: "two_decrements",
        a: "ffffffffffffffff0000000000000000ffffffffffffffff0000000000000000",
        d: "ffffffffffffffff00000000000000018000000000000000",
        q: "ffffffffffffffff",
        r: "fffffffffffffffe80000000000000008000000000000000",
    },
    // D3's estimate passes its two-limb test, yet the divisor's lowest
    // limb makes it one too large: D4's subtraction borrows and step D6
    // adds the divisor back.
    Division {
        name: "add_back",
        a: "0000000000000002800000000000000000000000000000018000000000000000",
        d: "800000000000000000000000000000008000000000000001",
        q: "4",
        r: "7fffffffffffffffffffffffffffffff7ffffffffffffffc",
    },
    // A two-limb divisor whose top limb is 1: normalisation shifts by 63.
    Division {
        name: "top_limb_one",
        a: "d992f7f575ee364fb505d6e19e9cc91433b52c97a42a03970f2eded7213f6d69bc944c3fe56c297f",
        d: "1a0dd02f434d24c28",
        q: "859d4d4e2d21ff251a521bc13363e1a9ecf5936c7c696757b7de4e7cf6691320",
        r: "d0efafe0313ac7f",
    },
    Division {
        name: "top_limb_all_ones",
        a: "cf09f3d08538107d29a0645f4f69a8162760dfe5bcd7f30f3a2172d255ffa25ec1a88bd3bb1ef32750d5e290d2b1983dd7b7f93b0c90939de095d391684a78f718fa1906f9d00763e21ca72685fcd2f2d526523eae481f9183575f0dc8045873",
        d: "ffffffffffffffffaa10cae2a318d8b3484d14663ecb55e9",
        q: "cf09f3d08538107d6f202792fa0ef47d65d774bcd96f0c1a1d47d4bffd408e919b0c54997926866cb4ccd960e740da7ba83262e9214b6f7c57fba77d01861ada099401813a0ccb37",
        r: "c49d6eb9eaa22bd70f46f913093e98ba7115b2e33c492064",
    },
    Division {
        name: "all_ones",
        a: "cf09f3d08538107d29a0645f4f69a8162760dfe5bcd7f30f3a2172d255ffa25ec1a88bd3bb1ef32750d5e290d2b1983dd7b7f93b0c90939de095d391684a78f718fa1906f9d00763e21ca72685fcd2f2d526523eae481f9183575f0dc8045873",
        d: "ffffffffffffffffffffffffffffffffffffffffffffffff",
        q: "cf09f3d08538107d29a0645f4f69a8162760dfe5bcd7f310092b66a2db37b2dbeb48f0330a889b3d7836c2768f898b4de0e35fdde7c84679cbdec3c472d314349130db7d895992b1",
        r: "c30007046dc5196ca1051603211b33c614883a8b515deb24",
    },
    Division {
        name: "below",
        a: "d992f7f575ee364fb505d6e19e9cc91433b52c97a42a03970f2eded7213f6d69bc944c3fe56c297e",
        d: "d992f7f575ee364fb505d6e19e9cc91433b52c97a42a03970f2eded7213f6d69bc944c3fe56c297f",
        q: "0",
        r: "d992f7f575ee364fb505d6e19e9cc91433b52c97a42a03970f2eded7213f6d69bc944c3fe56c297e",
    },
    Division {
        name: "equal",
        a: "d992f7f575ee364fb505d6e19e9cc91433b52c97a42a03970f2eded7213f6d69bc944c3fe56c297f",
        d: "d992f7f575ee364fb505d6e19e9cc91433b52c97a42a03970f2eded7213f6d69bc944c3fe56c297f",
        q: "1",
        r: "0",
    },
    Division {
        name: "exact_multiple",
        a: "88b7b15c2b84871e6bd7ebcf1252287a9f7338ae01106948fbbafe761e0ed9dfbfcba1f37894cd3cd1c01bdc96088b04d096406d1d705e01fb2553b1c471981ae00f30c062edef97",
        d: "d992f7f575ee364fb505d6e19e9cc91433b52c97a42a03970f2eded7213f6d69bc944c3fe56c297f",
        q: "a0dd02f434d24c28aa10cae2a318d8b3f637f221aa2078e5484d14663ecb55e9",
        r: "0",
    },
];

#[test]
fn divisions_match_their_known_answers() {
    for case in DIVISIONS {
        let (a, d) = (hex(case.a), hex(case.d));
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.to_string(), case.q, "{}: quotient", case.name);
        assert_eq!(r.to_string(), case.r, "{}: remainder", case.name);
        assert_eq!(
            (&a / &d, &a % &d),
            (q, r.clone()),
            "{}: operators",
            case.name
        );
        assert_eq!(a.rem_ref(&d), r, "{}: rem_ref", case.name);
    }
}

/// An odd modulus, a base wider than it, and `base^e mod n` for each
/// exponent of [`exponents`], in that order.
struct Power {
    n: &'static str,
    base: &'static str,
    results: [&'static str; 6],
}

/// The exponents every modulus is raised to: 0, 1, 15, 16, `2^k - 1`
/// for the modulus's bit length `k`, and `n - 1`.
fn exponents(n: &BigUint) -> [BigUint; 6] {
    let one = BigUint::one();
    let all_ones = &one.shl_bits(n.bit_len()) - &one;
    [
        BigUint::zero(),
        one.clone(),
        BigUint::from_u64(15),
        BigUint::from_u64(16),
        all_ones,
        n - &one,
    ]
}

/// Moduli of 64, 256, 320 and 768 bits. The 64-bit one takes
/// `BigUint::modpow`'s single-limb path; the others go through Montgomery
/// for every exponent wider than four bits.
const POWERS: &[Power] = &[
    Power {
        n: "94594d8b75673fcb",
        base: "88623121de0bbf37a",
        results: [
            "1",
            "6940d47d75167660",
            "41c234e2701b2bc8",
            "66db62b4d7c5ada7",
            "463c3b9fe96be0e2",
            "637ff92a9be6ba3b",
        ],
    },
    Power {
        n: "a0dd02f434d24c28aa10cae2a318d8b3f637f221aa2078e5484d14663ecb55e9",
        base: "8707546dbbd1a1c00970d5caf6be44db9be137404546f1417059300965c313063d",
        results: [
            "1",
            "8e93f597a9d6160b46cc3182677fb52c0e72d8210fcc31c5e8c0fbed45193577",
            "9f898696a8e5166db4577ead2e52237bd95a225768d8ac02c5b29508ab51834f",
            "272e5691d79ec22c3ca3aeee58dd5b36a15ee174974621123694a67627b5b4d",
            "275311d62db660294551e19a0ca3704a5165513af383ce54e985ba5a8de23a73",
            "52fa9b4683027c98bd2c3fb439cacce1235f2c6ba554da8a8cc521157bf17329",
        ],
    },
    Power {
        n: "d992f7f575ee364fb505d6e19e9cc91433b52c97a42a03970f2eded7213f6d69bc944c3fe56c297f",
        base: "255336f85ef7316abf401e4da81d152300502eb5d19ad08fa3cadd3e7f2d328ad50d9cf6daf644a8fd",
        results: [
            "1",
            "c7875224282e4b5bd82335c278bf5c9ba0c0385907c1f5443dfdd05c978b2a1260b4281f6d19b0a8",
            "9a4a3146e0e0a1363e732699b697fc802e910c7fa7a1f4634f578f06121e229279d2ccfe2822338",
            "a82468df4b7694bedf50d390dd4e6dd81c49adaa994d5dcc5322973ac915ebe63af5753c053c4b7c",
            "9403cc90a1c595b35ce04e48bcc69a87a805e7cc479c2ab0e44f65957c9ef253adaa76b215b99731",
            "78dc99e2c75c2cb747306d66b234512f716ad8f04ef8d167ef4dbaab8c67a72342470b7ee005acc3",
        ],
    },
    Power {
        n: "cf09f3d08538107d29a0645f4f69a8162760dfe5bcd7f30f3a2172d255ffa25ec1a88bd3bb1ef32750d5e290d2b1983dd7b7f93b0c90939de095d391684a78f718fa1906f9d00763e21ca72685fcd2f2d526523eae481f9183575f0dc8045873",
        base: "4d9c825e0c77913d3d16aeb1a3024a88bd95d7a4dacb3a67989bf991063479ea1a956eb6dc2bb99c2f107c687b842e25da6ef474fd7df3143a35e0c306960b079ae4d2d88928714edefd31ad7dc8d533807639e89f4a98971ed384fbd5b20bbfd0",
        results: [
            "1",
            "c7d0e3ab07c31ecaa42972448a152884f8e48e99b71734f2098ff4f84a9ca8f0b7e2d349bb3d6098111d54bd5446a6e761aef813d44c4ca3de474010e26823e8a0038ef2743e90ce148fa6321002eb635d01635c9dd4e01f1618b5b8786eed23",
            "367c5aed643b7931afa40a1c9ab7c1f170df2709b5513d7687afb2493741458ee25d27e5c75c3ab89b298d490caf190878ad1ddc1009f40ad7749b7ed5b0c6fdef8afcc5aa54f99bf99afa4cd484529240a96167349f06de5709ef7a57910ce3",
            "bfc155173414fd9b942c9a8acee5cb8493e34e3e38354c8939264409c202059fee611f406fd269f0fa4e7aa8d2565ffac7a5c1e3c4e9f567b8ce867bcd610d861748a03c04cf0101d0d804b95047e8bdbddaa34916eaf5f39d25acc8aeacb909",
            "71ed71e7869d62de989c10badb81738867506315209185c14bcb8029096bc21fa28b97c4400a4310601c58593b92f4ec37f0ac16fc81aa629a491696a3012bc25d81e47b6b116f85f027d3d9fee3e024aafac090874bcb09b4eae78e9a1643dd",
            "c32407f9e5745f831c88743c7b0c3908360538e5db0ba34529a54ef10ee45ae3d227ecde13e2ddb0a4c5a2ac796a71a28ba66ea57cfd9887489bd88ab30d359e683aa4b98c7191f07cc3327c94f85120912771c826b5ff5f1bb25c58cc407bdd",
        ],
    },
];

#[test]
fn powers_match_their_known_answers() {
    for case in POWERS {
        let (n, base) = (hex(case.n), hex(case.base));
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for (e, want) in exponents(&n).iter().zip(case.results) {
            let what = format!("{}-bit modulus, exponent {e}", n.bit_len());
            assert_eq!(base.modpow(e, &n).to_string(), want, "{what}");
            assert_eq!(ctx.modpow(&base, e).to_string(), want, "{what}, Montgomery");
        }
    }
}

#[test]
fn modular_products_and_inverses_match_their_known_answers() {
    // The 768-bit modulus and base of `POWERS`, and the 320-bit base.
    let n = hex(POWERS[3].n);
    let (a, b) = (hex(POWERS[3].base), hex(POWERS[2].base));
    assert_eq!(
        a.mul_mod(&b, &n).to_string(),
        "a9f14a11d326581294659fbc148a06e5d0d097a8729a8bd0a28f76dad780d097b1e6d79903760f37e20f3c3e5b884169018703bad4403849055d60b7f85dc71aa498bd8424a3156470add1ed324ebace35c3c7b62fb8c95e05f1ee998702e718"
    );
    assert_eq!(
        b.modinv(&n).map(|i| i.to_string()).as_deref(),
        Some("541566cfdd22162a0d06ca88b74e2828686566357e55f58d36108b4cad39a152bf4d77d6414354b4b3cb003130933cecaccbccf90d3a8344114db8c3133fb206b0cec59d665d83f3e5a5f02f90b9c22345db3260ce45cbe5d7711e4111721679")
    );
}
