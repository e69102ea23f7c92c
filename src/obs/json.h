/**
 * @file
 * Minimal JSON emitter for the observability layer.
 *
 * A push-style writer producing compact, valid JSON with no external
 * dependencies.  It tracks nesting and comma placement so metric
 * emitters can stream objects/arrays without string surgery.
 */

#ifndef CHERI_OBS_JSON_H
#define CHERI_OBS_JSON_H

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "cap/types.h"

namespace cheri::obs
{

class JsonWriter
{
  public:
    /** A fuzz run's metrics document is 2.5-4 KiB: start there rather
     *  than doubling up from empty. */
    JsonWriter() { out.reserve(initialCapacity); }

    JsonWriter &
    beginObject()
    {
        comma();
        out.push_back('{');
        fresh.push_back(true);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        out.push_back('}');
        fresh.pop_back();
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        comma();
        out.push_back('[');
        fresh.push_back(true);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        out.push_back(']');
        fresh.pop_back();
        return *this;
    }

    JsonWriter &
    key(std::string_view k)
    {
        comma();
        quote(k);
        out.push_back(':');
        // The upcoming value must not emit its own comma.
        if (!fresh.empty())
            fresh.back() = true;
        return *this;
    }

    JsonWriter &
    value(std::string_view v)
    {
        comma();
        quote(v);
        return *this;
    }

    JsonWriter &
    value(u64 v)
    {
        comma();
        number(v);
        return *this;
    }

    JsonWriter &
    value(s64 v)
    {
        comma();
        number(v);
        return *this;
    }

    JsonWriter &
    value(int v)
    {
        return value(static_cast<s64>(v));
    }

    JsonWriter &
    value(unsigned v)
    {
        return value(static_cast<u64>(v));
    }

    /** Four significant digits, the same text as printf's "%.4g". */
    JsonWriter &
    value(double v)
    {
        comma();
        number(v, std::chars_format::general, 4);
        return *this;
    }

    JsonWriter &
    value(bool v)
    {
        comma();
        out += v ? "true" : "false";
        return *this;
    }

    const std::string &str() const { return out; }

  private:
    static constexpr size_t initialCapacity = 4096;

    /** Append std::to_chars(@p args...). */
    template <typename... Args>
    void
    number(Args... args)
    {
        char buf[40];
        auto res = std::to_chars(buf, buf + sizeof(buf), args...);
        out.append(buf, res.ptr);
    }

    void
    comma()
    {
        if (fresh.empty())
            return;
        if (!fresh.back())
            out.push_back(',');
        fresh.back() = false;
    }

    static bool
    needsEscape(char c)
    {
        return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
    }

    void
    quote(std::string_view s)
    {
        out.push_back('"');
        // Keys and most values need no escaping: copy up to the first
        // character that does in one append.
        size_t plain = 0;
        while (plain < s.size() && !needsEscape(s[plain]))
            ++plain;
        out.append(s.substr(0, plain));
        for (char c : s.substr(plain)) {
            switch (c) {
              case '"': out += "\\\""; break;
              case '\\': out += "\\\\"; break;
              case '\n': out += "\\n"; break;
              case '\r': out += "\\r"; break;
              case '\t': out += "\\t"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out.push_back(c);
                }
            }
        }
        out.push_back('"');
    }

    std::string out;
    /** One flag per open container: true until its first element. */
    std::vector<bool> fresh;
};

} // namespace cheri::obs

#endif // CHERI_OBS_JSON_H
