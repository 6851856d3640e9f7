//! `Serialize::write_json` streams exactly the compact JSON of the
//! `Value` tree, for every derive shape and every std impl.
//!
//! `stable_hash` and `serde_json::to_string` write through `write_json`,
//! while `to_compact_string(&x.to_value())` renders the intermediate tree;
//! cache keys, trace hashes and golden records depend on the two agreeing
//! byte for byte. Each check asserts both equalities:
//!
//! * `serde_json::to_string(x) == to_compact_string(&x.to_value())`;
//! * `stable_hash(x) == fnv1a_64(text)`.
//!
//! The literal expectations pin the float and string renderings
//! themselves, so a change to the shared primitives cannot hide behind
//! both paths moving together. `char` and `HashMap` keep the default
//! `write_json` (through `to_value`), so they cover that fallback.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ecas_obs::{fnv1a_64, stable_hash};
use proptest::prelude::*;
use serde::ser::to_compact_string;
use serde::{Serialize, Value};

/// Asserts both equivalences and returns the compact text.
fn check<T: Serialize + ?Sized>(x: &T) -> String {
    let streamed = serde_json::to_string(x).unwrap();
    assert_eq!(streamed, to_compact_string(&x.to_value()));
    assert_eq!(stable_hash(x), fnv1a_64(streamed.as_bytes()), "{streamed}");
    streamed
}

// --- derive shapes ------------------------------------------------------

#[derive(Serialize)]
struct Named {
    a: u32,
    b: String,
    c: Option<f64>,
    d: Vec<Marker>,
}

#[derive(Serialize)]
struct Pair(i32, f64);

#[derive(Serialize)]
struct Triple(u8, &'static str, Option<bool>);

#[derive(Serialize)]
struct Marker;

#[derive(Serialize)]
struct Newtype(f64);

#[derive(Serialize)]
#[serde(transparent)]
struct Transparent {
    inner: Vec<i16>,
}

#[derive(Clone, Serialize)]
#[serde(into = "Vec<u16>")]
struct Converted {
    items: Vec<u16>,
}

impl From<Converted> for Vec<u16> {
    fn from(c: Converted) -> Self {
        c.items.into_iter().rev().collect()
    }
}

#[derive(Serialize)]
struct Generic<T>
where
    T: Clone,
{
    items: Vec<T>,
    first: Option<T>,
}

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Tuple(u8, String),
    Named { x: f32, label: &'static str },
}

#[test]
fn named_struct() {
    let v = Named {
        a: 7,
        b: "q\"uote".to_string(),
        c: None,
        d: vec![Marker, Marker],
    };
    assert_eq!(
        check(&v),
        r#"{"a":7,"b":"q\"uote","c":null,"d":[null,null]}"#
    );
    let v = Named {
        c: Some(2.0),
        d: Vec::new(),
        ..v
    };
    assert_eq!(check(&v), r#"{"a":7,"b":"q\"uote","c":2.0,"d":[]}"#);
}

#[test]
fn tuple_unit_newtype_and_transparent_structs() {
    assert_eq!(check(&Pair(-3, 0.5)), "[-3,0.5]");
    assert_eq!(check(&Triple(1, "x", Some(true))), r#"[1,"x",true]"#);
    assert_eq!(check(&Marker), "null");
    assert_eq!(check(&Newtype(1e16)), "10000000000000000");
    assert_eq!(check(&Transparent { inner: vec![-1, 2] }), "[-1,2]");
}

#[test]
fn into_struct_serializes_its_conversion() {
    let v = Converted {
        items: vec![1, 2, 3],
    };
    assert_eq!(check(&v), "[3,2,1]");
}

#[test]
fn generic_struct() {
    let v = Generic {
        items: vec!['a', '"'],
        first: Some('a'),
    };
    assert_eq!(check(&v), r#"{"items":["a","\""],"first":"a"}"#);
}

#[test]
fn enum_variants_are_externally_tagged() {
    assert_eq!(check(&Shape::Unit), r#""Unit""#);
    assert_eq!(check(&Shape::Newtype(-0.0)), r#"{"Newtype":-0.0}"#);
    assert_eq!(check(&Shape::Tuple(9, "t".into())), r#"{"Tuple":[9,"t"]}"#);
    assert_eq!(
        check(&Shape::Named { x: 0.1, label: "l" }),
        r#"{"Named":{"x":0.10000000149011612,"label":"l"}}"#
    );
    check(&vec![Shape::Unit, Shape::Newtype(f64::NAN)]);
}

// --- std impls ----------------------------------------------------------

#[test]
fn scalars() {
    assert_eq!(check(&true), "true");
    assert_eq!(check(&false), "false");
    assert_eq!(check(&i8::MIN), "-128");
    assert_eq!(check(&i16::MIN), "-32768");
    assert_eq!(check(&i32::MIN), "-2147483648");
    assert_eq!(check(&i64::MIN), "-9223372036854775808");
    assert_eq!(check(&isize::MIN), isize::MIN.to_string());
    assert_eq!(check(&u8::MAX), "255");
    assert_eq!(check(&u16::MAX), "65535");
    assert_eq!(check(&u32::MAX), "4294967295");
    assert_eq!(check(&u64::MAX), "18446744073709551615");
    assert_eq!(check(&usize::MAX), usize::MAX.to_string());
    assert_eq!(check(&'é'), r#""é""#);
    assert_eq!(check(&'\u{1}'), r#""\u0001""#);
}

#[test]
fn float_edge_values() {
    let cases: [(f64, Option<&str>); 13] = [
        (-0.0, Some("-0.0")),
        (0.0, Some("0.0")),
        (1e15 - 1.0, Some("999999999999999.0")),
        (-(1e15 - 1.0), Some("-999999999999999.0")),
        (1e15, Some("1000000000000000")),
        (1e16, Some("10000000000000000")),
        (1e-7, Some("0.0000001")),
        (f64::NAN, Some("null")),
        (f64::INFINITY, Some("null")),
        (f64::NEG_INFINITY, Some("null")),
        (5e-324, None),
        (f64::MAX, None),
        (f64::MIN_POSITIVE, None),
    ];
    for (f, expected) in cases {
        let text = check(&f);
        if let Some(expected) = expected {
            assert_eq!(text, expected, "{f:e}");
        }
        if f.is_finite() {
            let back: f64 = serde_json::from_str(&text).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{text}");
        }
    }
    assert!(check(&5e-324).ends_with('5'));
    assert_eq!(check(&f64::MAX).len(), 309);
}

#[test]
fn f32_inputs_widen_to_f64() {
    assert_eq!(check(&0.1f32), "0.10000000149011612");
    assert_eq!(check(&-2.0f32), "-2.0");
    assert_eq!(check(&f32::NAN), "null");
    assert_eq!(check(&f32::INFINITY), "null");
    assert_eq!(check(&f32::MAX), "340282346638528860000000000000000000000");
    assert_eq!(
        check(&f32::MIN_POSITIVE),
        "0.000000000000000000000000000000000000011754943508222875"
    );
}

#[test]
fn strings_escape_quotes_backslashes_and_controls() {
    let s = "a\"b\\c\u{1}d\u{1f}e\u{7f}f\n\r\t\u{8}\u{c}é中🎥";
    let expected = "\"a\\\"b\\\\c\\u0001d\\u001fe\u{7f}f\\n\\r\\t\\b\\fé中🎥\"";
    assert_eq!(check(s), expected);
    assert_eq!(check(&s.to_string()), expected);
    assert_eq!(check(""), r#""""#);
    assert_eq!(check("plain"), r#""plain""#);
    assert_eq!(check("\u{0}"), r#""\u0000""#);
}

#[test]
fn containers() {
    let boxed: Box<u8> = Box::new(5);
    assert_eq!(check(&boxed), "5");
    let reference: &f64 = &1.5;
    assert_eq!(check(&reference), "1.5");
    assert_eq!(check(&Some(3u8)), "3");
    assert_eq!(check(&None::<u8>), "null");
    assert_eq!(check(&vec![1u8, 2]), "[1,2]");
    assert_eq!(check(&Vec::<u8>::new()), "[]");
    assert_eq!(check(&[1.0f64, 2.5][..]), "[1.0,2.5]");
    assert_eq!(check(&[true; 3]), "[true,true,true]");
    assert_eq!(check(&[0u8; 0]), "[]");
    assert_eq!(check(&(1u8,)), "[1]");
    assert_eq!(check(&(1u8, "b")), r#"[1,"b"]"#);
    assert_eq!(check(&(1u8, "b", 2.0f64)), r#"[1,"b",2.0]"#);
    assert_eq!(
        check(&(1u8, "b", 2.0f64, None::<u8>)),
        r#"[1,"b",2.0,null]"#
    );
    let set: BTreeSet<i32> = [3, -1, 2].into_iter().collect();
    assert_eq!(check(&set), "[-1,2,3]");
    let map: BTreeMap<String, f64> = [("b\"".to_string(), 1.0), ("a".to_string(), f64::NAN)]
        .into_iter()
        .collect();
    assert_eq!(check(&map), r#"{"a":null,"b\"":1.0}"#);
    assert_eq!(check(&BTreeMap::<String, u8>::new()), "{}");
    let hash: HashMap<String, u8> = [("z", 1), ("a", 2), ("m", 3)]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert_eq!(check(&hash), r#"{"a":2,"m":3,"z":1}"#);
}

#[test]
fn values_render_compactly() {
    let v: Value = serde_json::from_str(r#"{"k":[1,-2,3.5,"s\n",null,true,{}],"e":[]}"#).unwrap();
    assert_eq!(check(&v), r#"{"k":[1,-2,3.5,"s\n",null,true,{}],"e":[]}"#);
    assert_eq!(v.to_string(), to_compact_string(&v));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_f64_bit_patterns(bits in 0u64..=u64::MAX) {
        let f = f64::from_bits(bits);
        let text = check(&f);
        if f.is_finite() {
            let back: f64 = serde_json::from_str(&text).unwrap();
            prop_assert_eq!(back.to_bits(), f.to_bits());
        } else {
            prop_assert_eq!(text.as_str(), "null");
        }
        check(&Newtype(f));
        check(&(f as f32));
    }

    #[test]
    fn random_latin1_strings(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
        let s: String = bytes.into_iter().map(char::from).collect();
        let text = check(s.as_str());
        let back: String = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, s);
    }
}
