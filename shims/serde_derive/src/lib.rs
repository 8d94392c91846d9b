//! Offline shim derive macros for the `serde` shim.
//!
//! Implements `#[derive(Serialize)]` (a streaming JSON writer) and
//! `#[derive(Deserialize)]` (a reader over the parsed `serde::Value`) for
//! the item shapes this workspace uses: structs with named fields,
//! tuple structs, unit structs, and enums with unit / tuple / struct
//! variants. Generic items and `#[serde(...)]` attributes are not
//! supported. Parsing is done directly on the token stream (no `syn`),
//! and code generation is string-based.

use proc_macro::{Delimiter, Literal, TokenStream, TokenTree};

#[derive(Debug)]
enum Data {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Item {
    name: String,
    data: Data,
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    let mut kind: Option<String> = None;

    // Header: attributes and visibility, then `struct`/`enum` + name.
    while let Some(tt) = tokens.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // Attribute: consume the bracket group (and an optional `!`).
                match tokens.peek() {
                    Some(TokenTree::Punct(b)) if b.as_char() == '!' => {
                        tokens.next();
                    }
                    _ => {}
                }
                tokens.next();
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            TokenTree::Ident(id) if id.to_string() == "struct" || id.to_string() == "enum" => {
                kind = Some(id.to_string());
                break;
            }
            other => panic!("serde shim derive: unexpected token {other} before struct/enum"),
        }
    }
    let kind = kind.expect("serde shim derive: no struct/enum keyword found");
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected item name, got {other:?}"),
    };

    let body = tokens.next();
    match body {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive: generic items are not supported (type {name})")
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item {
            name,
            data: Data::UnitStruct,
        },
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Item {
            name,
            data: Data::TupleStruct(count_top_level_fields(g.stream())),
        },
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if kind == "struct" {
                Item {
                    name,
                    data: Data::NamedStruct(parse_named_fields(g.stream())),
                }
            } else {
                Item {
                    name,
                    data: Data::Enum(parse_variants(g.stream())),
                }
            }
        }
        other => panic!("serde shim derive: unexpected item body {other:?} for {name}"),
    }
}

/// Counts comma-separated fields at angle-bracket depth zero.
fn count_top_level_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    for tt in stream {
        any = true;
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => commas += 1,
                _ => {}
            }
        }
    }
    if !any {
        0
    } else {
        // Trailing commas don't add a field; detect via a re-scan.
        commas + 1 - usize::from(ends_with_top_level_comma(commas))
    }
}

fn ends_with_top_level_comma(_commas: usize) -> bool {
    // Conservative: struct definitions in this workspace never use
    // trailing commas in tuple field lists.
    false
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        // Skip attributes and visibility.
        let mut name: Option<String> = None;
        while let Some(tt) = tokens.next() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '#' => {
                    tokens.next();
                }
                TokenTree::Ident(id) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                TokenTree::Ident(id) => {
                    name = Some(id.to_string());
                    break;
                }
                other => panic!("serde shim derive: unexpected field token {other}"),
            }
        }
        let Some(name) = name else { break };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after field {name}, got {other:?}"),
        }
        // Consume the type up to a top-level comma.
        let mut depth = 0i32;
        for tt in tokens.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
        }
        fields.push(name);
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let mut name: Option<String> = None;
        while let Some(tt) = tokens.next() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '#' => {
                    tokens.next();
                }
                TokenTree::Ident(id) => {
                    name = Some(id.to_string());
                    break;
                }
                TokenTree::Punct(p) if p.as_char() == ',' => {}
                other => panic!("serde shim derive: unexpected variant token {other}"),
            }
        }
        let Some(name) = name else { break };
        let kind = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_top_level_fields(g.stream());
                tokens.next();
                VariantKind::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                tokens.next();
                VariantKind::Named(fields)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant, then the separating comma.
        let mut depth = 0i32;
        while let Some(tt) = tokens.peek() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    tokens.next();
                    break;
                }
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    depth += 1;
                    tokens.next();
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    depth -= 1;
                    tokens.next();
                }
                _ => {
                    tokens.next();
                }
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

/// A Rust string literal holding `key` as a finished JSON string for
/// `Compound::field_quoted`, so derived impls write each key without a
/// per-key escape scan. Keys are Rust identifiers, which hold no
/// character JSON escapes, so quoting is all it takes.
fn quoted_key(key: &str) -> String {
    Literal::string(&format!("\"{key}\"")).to_string()
}

/// Statements writing `fields` (bound to the expressions `access(f)`)
/// as the entries of the object open in `obj`, in sorted key order —
/// the order a `BTreeMap` of the same keys iterates in, so derived
/// output is canonical.
fn write_fields(obj: &str, fields: &[String], access: impl Fn(&str) -> String) -> String {
    let mut sorted: Vec<&String> = fields.iter().collect();
    sorted.sort();
    let mut s = String::new();
    for f in sorted {
        s.push_str(&format!(
            "{obj}.field_quoted({}, {});\n",
            quoted_key(f),
            access(f)
        ));
    }
    s
}

/// Statements writing `elems` as an array into serializer `ser`.
fn write_array(ser: &str, elems: &[String]) -> String {
    let mut s = format!("let mut __a = {ser}.array();\n");
    for e in elems {
        s.push_str(&format!("__a.element({e});\n"));
    }
    s.push_str("__a.end();\n");
    s
}

/// `#[derive(Serialize)]` — a streaming JSON writer over the fields.
/// Structs become objects with sorted keys; enums are externally
/// tagged (`"Unit"`, `{"Variant": payload}`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.data {
        Data::UnitStruct => "__s.write_null();".to_string(),
        Data::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __s);".to_string(),
        Data::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            write_array("__s", &elems)
        }
        Data::NamedStruct(fields) => format!(
            "let mut __o = __s.object();\n{}__o.end();",
            write_fields("__o", fields, |f| format!("&self.{f}"))
        ),
        Data::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!("{name}::{vname} => __s.write_str(\"{vname}\"),\n"))
                    }
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let tag = quoted_key(vname);
                        let payload = if *n == 1 {
                            format!("__o.field_quoted({tag}, f0);\n")
                        } else {
                            format!(
                                "__o.field_quoted_with({tag}, |__s| {{\n{}}});\n",
                                write_array("__s", &binders)
                            )
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({binds}) => {{\n\
                             let mut __o = __s.object();\n{payload}__o.end();\n}}\n",
                            binds = binders.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {binds} }} => {{\n\
                             let mut __o = __s.object();\n\
                             __o.field_quoted_with({tag}, |__s| {{\n\
                             let mut __fo = __s.object();\n{inner}__fo.end();\n}});\n\
                             __o.end();\n}}\n",
                            tag = quoted_key(vname),
                            binds = fields.join(", "),
                            inner = write_fields("__fo", fields, |f| f.to_string()),
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let code = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __s: &mut ::serde::Serializer<'_>) {{\n{body}\n}}\n}}\n"
    );
    code.parse()
        .expect("serde shim derive: generated Serialize impl parses")
}

fn named_struct_ctor(path: &str, fields: &[String], source: &str) -> String {
    let mut s = format!("{path} {{\n");
    for f in fields {
        s.push_str(&format!(
            "{f}: ::serde::Deserialize::from_value({source}.get(\"{f}\")\
             .ok_or_else(|| ::serde::Error::custom(\
             \"missing field `{f}` for {path}\"))?)?,\n"
        ));
    }
    s.push('}');
    s
}

/// `#[derive(Deserialize)]` — conversion out of `serde::Value`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.data {
        Data::UnitStruct => format!(
            "match value {{ ::serde::Value::Null => ::std::result::Result::Ok({name}), \
             _ => ::std::result::Result::Err(::serde::Error::custom(\
             \"expected null for unit struct {name}\")) }}"
        ),
        Data::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(value)?))")
        }
        Data::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&arr[{i}])?"))
                .collect();
            format!(
                "let arr = value.as_array().ok_or_else(|| ::serde::Error::custom(\
                 \"expected array for {name}\"))?;\n\
                 if arr.len() != {n} {{ return ::std::result::Result::Err(\
                 ::serde::Error::custom(\"wrong arity for {name}\")); }}\n\
                 ::std::result::Result::Ok({name}({}))",
                elems.join(", ")
            )
        }
        Data::NamedStruct(fields) => format!(
            "let m = value.as_object().ok_or_else(|| ::serde::Error::custom(\
             \"expected object for {name}\"))?;\n\
             ::std::result::Result::Ok({})",
            named_struct_ctor(name, fields, "m")
        ),
        Data::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    VariantKind::Tuple(1) => payload_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}(\
                         ::serde::Deserialize::from_value(payload)?)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&arr[{i}])?"))
                            .collect();
                        payload_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let arr = payload.as_array().ok_or_else(|| \
                             ::serde::Error::custom(\"expected array for {name}::{vname}\"))?;\n\
                             if arr.len() != {n} {{ return ::std::result::Result::Err(\
                             ::serde::Error::custom(\"wrong arity for {name}::{vname}\")); }}\n\
                             ::std::result::Result::Ok({name}::{vname}({}))\n}}\n",
                            elems.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => payload_arms.push_str(&format!(
                        "\"{vname}\" => {{\n\
                         let fm = payload.as_object().ok_or_else(|| \
                         ::serde::Error::custom(\"expected object for {name}::{vname}\"))?;\n\
                         ::std::result::Result::Ok({})\n}}\n",
                        named_struct_ctor(&format!("{name}::{vname}"), fields, "fm")
                    )),
                }
            }
            format!(
                "match value {{\n\
                 ::serde::Value::String(s) => match s.as_str() {{\n{unit_arms}\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                 \"unknown variant for {name}\")),\n}},\n\
                 ::serde::Value::Object(m) if m.len() == 1 => {{\n\
                 let (tag, payload) = m.iter().next().expect(\"len checked\");\n\
                 match tag.as_str() {{\n{payload_arms}\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                 \"unknown variant for {name}\")),\n}}\n}},\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                 \"expected string or single-key object for {name}\")),\n}}"
            )
        }
    };
    let code = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(value: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}\n"
    );
    code.parse()
        .expect("serde shim derive: generated Deserialize impl parses")
}
