#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

/**
 * @file
 * Minimal JSON emission for the raw run record the benchmark binary
 * hands to run.py: objects with ordered keys, numbers printed with
 * every significant digit, non-finite numbers as null.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

inline std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out + "\"";
}

template <typename T, typename F>
std::string
jsonArray(const std::vector<T> &values, F &&format)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ",";
        out += format(values[i]);
    }
    return out + "]";
}

inline std::string
jsonNums(const std::vector<double> &values)
{
    return jsonArray(values, jsonNum);
}

/** An object whose members are already-encoded JSON values. */
class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, std::string json)
    {
        members_.emplace_back(key, std::move(json));
        return *this;
    }
    JsonObject &num(const std::string &key, double v)
    {
        return raw(key, jsonNum(v));
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonStr(v));
    }

    std::string
    dump() const
    {
        std::string out = "{";
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out += ",";
            out += jsonStr(members_[i].first) + ":" + members_[i].second;
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> members_;
};

/** A name -> number map as a JSON object (sorted keys). */
inline std::string
jsonMap(const std::map<std::string, double> &m)
{
    JsonObject o;
    for (const auto &[k, v] : m)
        o.num(k, v);
    return o.dump();
}

} // namespace perfbench

#endif // PERFBENCH_JSON_H_
