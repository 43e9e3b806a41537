#include "exec/json.hpp"

#include <cmath>
#include <cstdio>

namespace hwst::exec::json {

// ---- serializer --------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string& out)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void dump_double(double v, std::string& out)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    const std::string_view sv{buf};
    out += sv;
    // Keep doubles recognisably doubles on re-parse.
    if (sv.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

void indent_to(std::string& out, int indent, int depth)
{
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_value(const Value& v, std::string& out, int indent, int depth)
{
    switch (v.kind()) {
    case Value::Kind::Null: out += "null"; return;
    case Value::Kind::Bool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Kind::Int: out += std::to_string(v.as_int()); return;
    case Value::Kind::Double: dump_double(v.as_double(), out); return;
    case Value::Kind::String: dump_string(v.as_string(), out); return;
    case Value::Kind::Array: {
        const auto& items = v.items();
        if (items.empty()) { out += "[]"; return; }
        out += '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i) out += indent > 0 ? "," : ", ";
            indent_to(out, indent, depth + 1);
            dump_value(items[i], out, indent, depth + 1);
        }
        indent_to(out, indent, depth);
        out += ']';
        return;
    }
    case Value::Kind::Object: {
        const auto& members = v.members();
        if (members.empty()) { out += "{}"; return; }
        out += '{';
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (i) out += indent > 0 ? "," : ", ";
            indent_to(out, indent, depth + 1);
            dump_string(members[i].first, out);
            out += ": ";
            dump_value(members[i].second, out, indent, depth + 1);
        }
        indent_to(out, indent, depth);
        out += '}';
        return;
    }
    }
}

} // namespace

std::string Value::dump(int indent) const
{
    std::string out;
    dump_value(*this, out, indent, 0);
    if (indent > 0) out += '\n';
    return out;
}

// ---- parser ------------------------------------------------------------

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_{text} {}

    Value document()
    {
        const Value v = value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& why)
    {
        // Quote a printable excerpt around the failure so a torn cache
        // cell or garbage BENCH file is diagnosable at a glance.
        std::string near;
        for (std::size_t i = pos_;
             i < text_.size() && near.size() < 16; ++i) {
            const char c = text_[i];
            near += (c >= 0x20 && c < 0x7F) ? c : '?';
        }
        throw JsonError{"json parse error at offset " +
                        std::to_string(pos_) + ": " + why +
                        (near.empty() ? std::string{" (at end of input)"}
                                      : " near '" + near + "'")};
    }

    /// Nesting bound: malicious or corrupt input (e.g. kilobytes of
    /// '[') must produce a JsonError, not a stack overflow.
    static constexpr int kMaxDepth = 128;

    struct DepthGuard {
        explicit DepthGuard(Parser& p) : p_{p}
        {
            if (++p_.depth_ > kMaxDepth) p_.fail("nesting too deep");
        }
        ~DepthGuard() { --p_.depth_; }
        Parser& p_;
    };

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c) fail(std::string{"expected '"} + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    Value value()
    {
        skip_ws();
        switch (peek()) {
        case '{': return object();
        case '[': return array();
        case '"': return Value{string()};
        case 't':
            if (!consume_literal("true")) fail("bad literal");
            return Value{true};
        case 'f':
            if (!consume_literal("false")) fail("bad literal");
            return Value{false};
        case 'n':
            if (!consume_literal("null")) fail("bad literal");
            return Value{nullptr};
        default: return number();
        }
    }

    Value object()
    {
        const DepthGuard guard{*this};
        expect('{');
        Value v = Value::object();
        skip_ws();
        if (peek() == '}') { ++pos_; return v; }
        for (;;) {
            skip_ws();
            const std::string key = string();
            skip_ws();
            expect(':');
            v[key] = value();
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            expect('}');
            return v;
        }
    }

    Value array()
    {
        const DepthGuard guard{*this};
        expect('[');
        Value v = Value::array();
        skip_ws();
        if (peek() == ']') { ++pos_; return v; }
        for (;;) {
            v.push_back(value());
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            expect(']');
            return v;
        }
    }

    std::string string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') { out += c; continue; }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size()) fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                    else fail("bad \\u escape");
                }
                // The emitter only writes \u00xx control escapes; decode
                // the Latin-1 range and encode the rest as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: fail("bad escape");
            }
        }
    }

    Value number()
    {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        bool is_double = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') { ++pos_; continue; }
            if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                is_double = true;
                ++pos_;
                continue;
            }
            break;
        }
        const std::string tok{text_.substr(start, pos_ - start)};
        if (tok.empty() || tok == "-") fail("bad number");
        try {
            if (is_double) return Value{std::stod(tok)};
            return Value{static_cast<i64>(std::stoll(tok))};
        } catch (const std::exception&) {
            fail("bad number: " + tok);
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

Value Value::parse(std::string_view text) { return Parser{text}.document(); }

} // namespace hwst::exec::json
