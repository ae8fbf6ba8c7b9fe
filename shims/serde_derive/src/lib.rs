//! Offline `#[derive(Serialize, Deserialize)]` for the `serde` shim.
//!
//! The real `serde_derive` builds on `syn`/`quote`, which are unavailable in
//! this container, so this crate parses the derive input directly from the
//! compiler's `TokenStream`. It supports exactly the shapes the workspace
//! declares: non-generic structs with named fields, tuple structs, and enums
//! whose variants are unit, newtype/tuple, or struct-like. The field
//! attributes honoured are `#[serde(default)]` and, on named struct fields,
//! `#[serde(skip)]` (never written; `Default::default()` on read); other
//! `#[serde(...)]` attributes are rejected so silent behaviour changes cannot
//! slip in.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    default: bool,
    skip: bool,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum Input {
    /// Named-field struct.
    Struct { name: String, fields: Vec<Field> },
    /// Tuple struct with N fields.
    TupleStruct { name: String, arity: usize },
    /// Enum.
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn is_punct(t: &TokenTree, ch: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == ch)
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if i.to_string() == s)
}

/// Consumes leading attributes at `i`, returning whether `#[serde(default)]`
/// and `#[serde(skip)]` were among them. Panics (compile error) on
/// unsupported serde attributes.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> (bool, bool) {
    let mut has_default = false;
    let mut has_skip = false;
    while *i < tokens.len() && is_punct(&tokens[*i], '#') {
        *i += 1;
        if *i < tokens.len() && is_punct(&tokens[*i], '!') {
            *i += 1;
        }
        let TokenTree::Group(g) = &tokens[*i] else {
            panic!("serde_derive shim: malformed attribute");
        };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if !inner.is_empty() && is_ident(&inner[0], "serde") {
            let Some(TokenTree::Group(args)) = inner.get(1) else {
                panic!("serde_derive shim: malformed #[serde] attribute");
            };
            for arg in args.stream() {
                match &arg {
                    t if is_ident(t, "default") => has_default = true,
                    t if is_ident(t, "skip") => has_skip = true,
                    TokenTree::Punct(p) if p.as_char() == ',' => {}
                    other => panic!(
                        "serde_derive shim: unsupported #[serde({other})] attribute; only `default` and `skip` are implemented"
                    ),
                }
            }
        }
        *i += 1;
    }
    (has_default, has_skip)
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if *i < tokens.len() && is_ident(&tokens[*i], "pub") {
        *i += 1;
        if *i < tokens.len() {
            if let TokenTree::Group(g) = &tokens[*i] {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Parses `name: Type, ...` fields inside a brace group.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (default, skip) = skip_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut i);
        let TokenTree::Ident(name) = &tokens[i] else {
            panic!(
                "serde_derive shim: expected field name, got {:?}",
                tokens[i]
            );
        };
        i += 1;
        assert!(
            is_punct(&tokens[i], ':'),
            "serde_derive shim: expected `:` after field name"
        );
        i += 1;
        // Skip the type: consume until a comma at zero angle-bracket depth.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                t if is_punct(t, '<') => depth += 1,
                t if is_punct(t, '>') => depth -= 1,
                t if is_punct(t, ',') && depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        i += 1; // past the comma (or end)
        fields.push(Field {
            name: name.to_string(),
            default,
            skip,
        });
    }
    fields
}

/// Counts tuple fields in a paren group (top-level commas + 1).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut trailing_comma = false;
    for t in &tokens {
        match t {
            t if is_punct(t, '<') => depth += 1,
            t if is_punct(t, '>') => depth -= 1,
            t if is_punct(t, ',') && depth == 0 => {
                count += 1;
                trailing_comma = true;
                continue;
            }
            _ => {}
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            panic!(
                "serde_derive shim: expected variant name, got {:?}",
                tokens[i]
            );
        };
        i += 1;
        let kind = if i < tokens.len() {
            match &tokens[i] {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                    let arity = count_tuple_fields(g.stream());
                    i += 1;
                    VariantKind::Tuple(arity)
                }
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                    let fields = parse_named_fields(g.stream());
                    assert!(
                        fields.iter().all(|f| !f.skip),
                        "serde_derive shim: #[serde(skip)] is only implemented on struct fields"
                    );
                    i += 1;
                    VariantKind::Struct(fields)
                }
                _ => VariantKind::Unit,
            }
        } else {
            VariantKind::Unit
        };
        // Skip an optional discriminant and the trailing comma.
        while i < tokens.len() && !is_punct(&tokens[i], ',') {
            i += 1;
        }
        i += 1;
        variants.push(Variant {
            name: name.to_string(),
            kind,
        });
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) if id.to_string() == "struct" || id.to_string() == "enum" => {
            id.to_string()
        }
        other => panic!("serde_derive shim: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;
    let TokenTree::Ident(name) = &tokens[i] else {
        panic!("serde_derive shim: expected type name");
    };
    let name = name.to_string();
    i += 1;
    if i < tokens.len() && is_punct(&tokens[i], '<') {
        panic!("serde_derive shim: generic types are not supported (type `{name}`)");
    }
    if kind == "enum" {
        let TokenTree::Group(g) = &tokens[i] else {
            panic!("serde_derive shim: expected enum body");
        };
        return Input::Enum {
            name,
            variants: parse_variants(g.stream()),
        };
    }
    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input::Struct {
            name,
            fields: parse_named_fields(g.stream()),
        },
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Input::TupleStruct {
                name,
                arity: count_tuple_fields(g.stream()),
            }
        }
        _ => panic!("serde_derive shim: unit structs are not supported (type `{name}`)"),
    }
}

/// Derives the shim's `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let out = match parse_input(input) {
        Input::Struct { name, fields } => {
            let mut pushes = String::new();
            for f in fields.iter().filter(|f| !f.skip) {
                pushes.push_str(&format!(
                    "__m.push((\"{f}\".to_string(), serde::Serialize::to_content(&self.{f})));\n",
                    f = f.name
                ));
            }
            format!(
                "impl serde::Serialize for {name} {{
                    fn to_content(&self) -> serde::Content {{
                        let mut __m: Vec<(String, serde::Content)> = Vec::with_capacity({n});
                        {pushes}
                        serde::Content::Map(__m)
                    }}
                }}",
                n = fields.len()
            )
        }
        Input::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..arity)
                .map(|k| format!("serde::Serialize::to_content(&self.{k})"))
                .collect();
            format!(
                "impl serde::Serialize for {name} {{
                    fn to_content(&self) -> serde::Content {{
                        serde::Content::Seq(vec![{}])
                    }}
                }}",
                items.join(", ")
            )
        }
        Input::Enum { name, variants } => {
            let mut arms = String::new();
            for v in &variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vn} => serde::Content::Str(\"{vn}\".to_string()),\n"
                        ));
                    }
                    VariantKind::Tuple(1) => {
                        arms.push_str(&format!(
                            "{name}::{vn}(__x0) => serde::Content::Map(vec![(\"{vn}\".to_string(), serde::Serialize::to_content(__x0))]),\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__x{k}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("serde::Serialize::to_content({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({bl}) => serde::Content::Map(vec![(\"{vn}\".to_string(), serde::Content::Seq(vec![{il}]))]),\n",
                            bl = binds.join(", "),
                            il = items.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let items: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{f}\".to_string(), serde::Serialize::to_content({f}))",
                                    f = f.name
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {bl} }} => serde::Content::Map(vec![(\"{vn}\".to_string(), serde::Content::Map(vec![{il}]))]),\n",
                            bl = binds.join(", "),
                            il = items.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl serde::Serialize for {name} {{
                    fn to_content(&self) -> serde::Content {{
                        match self {{ {arms} }}
                    }}
                }}"
            )
        }
    };
    out.parse()
        .expect("serde_derive shim: generated invalid Serialize impl")
}

/// Derives the shim's `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let out = match parse_input(input) {
        Input::Struct { name, fields } => {
            let mut inits = String::new();
            for f in &fields {
                if f.skip {
                    inits.push_str(&format!("{}: Default::default(),\n", f.name));
                    continue;
                }
                let missing = if f.default {
                    "Default::default()".to_string()
                } else {
                    format!(
                        "return Err(serde::Error::custom(\"{name}: missing field `{f}`\"))",
                        f = f.name
                    )
                };
                inits.push_str(&format!(
                    "{f}: match serde::map_get(__m, \"{f}\") {{
                        Some(__v) => serde::Deserialize::from_content(__v)?,
                        None => {missing},
                    }},\n",
                    f = f.name
                ));
            }
            format!(
                "impl serde::Deserialize for {name} {{
                    fn from_content(__c: &serde::Content) -> Result<Self, serde::Error> {{
                        let __m = __c.as_map().ok_or_else(|| serde::Error::custom(\"{name}: expected map\"))?;
                        Ok({name} {{ {inits} }})
                    }}
                }}"
            )
        }
        Input::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..arity)
                .map(|k| format!("serde::Deserialize::from_content(&__s[{k}])?"))
                .collect();
            format!(
                "impl serde::Deserialize for {name} {{
                    fn from_content(__c: &serde::Content) -> Result<Self, serde::Error> {{
                        let __s = __c.as_seq().ok_or_else(|| serde::Error::custom(\"{name}: expected sequence\"))?;
                        if __s.len() != {arity} {{
                            return Err(serde::Error::custom(\"{name}: wrong arity\"));
                        }}
                        Ok({name}({}))
                    }}
                }}",
                items.join(", ")
            )
        }
        Input::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in &variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),\n"));
                    }
                    VariantKind::Tuple(1) => {
                        data_arms.push_str(&format!(
                            "\"{vn}\" => Ok({name}::{vn}(serde::Deserialize::from_content(__v)?)),\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|k| format!("serde::Deserialize::from_content(&__s[{k}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{
                                let __s = __v.as_seq().ok_or_else(|| serde::Error::custom(\"{name}::{vn}: expected sequence\"))?;
                                if __s.len() != {n} {{
                                    return Err(serde::Error::custom(\"{name}::{vn}: wrong arity\"));
                                }}
                                Ok({name}::{vn}({il}))
                            }}\n",
                            il = items.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            let missing = if f.default {
                                "Default::default()".to_string()
                            } else {
                                format!(
                                    "return Err(serde::Error::custom(\"{name}::{vn}: missing field `{f}`\"))",
                                    f = f.name
                                )
                            };
                            inits.push_str(&format!(
                                "{f}: match serde::map_get(__fm, \"{f}\") {{
                                    Some(__fv) => serde::Deserialize::from_content(__fv)?,
                                    None => {missing},
                                }},\n",
                                f = f.name
                            ));
                        }
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{
                                let __fm = __v.as_map().ok_or_else(|| serde::Error::custom(\"{name}::{vn}: expected map\"))?;
                                Ok({name}::{vn} {{ {inits} }})
                            }}\n"
                        ));
                    }
                }
            }
            format!(
                "impl serde::Deserialize for {name} {{
                    fn from_content(__c: &serde::Content) -> Result<Self, serde::Error> {{
                        match __c {{
                            serde::Content::Str(__s) => match __s.as_str() {{
                                {unit_arms}
                                __other => Err(serde::Error::custom(format!(\"{name}: unknown variant `{{__other}}`\"))),
                            }},
                            _ => {{
                                let __m = __c.as_map().ok_or_else(|| serde::Error::custom(\"{name}: expected string or map\"))?;
                                if __m.len() != 1 {{
                                    return Err(serde::Error::custom(\"{name}: expected single-entry variant map\"));
                                }}
                                let (__k, __v) = &__m[0];
                                match __k.as_str() {{
                                    {data_arms}
                                    __other => Err(serde::Error::custom(format!(\"{name}: unknown variant `{{__other}}`\"))),
                                }}
                            }}
                        }}
                    }}
                }}"
            )
        }
    };
    out.parse()
        .expect("serde_derive shim: generated invalid Deserialize impl")
}
