// Fixture: virtual call whose target has a final-class override, so
// a composition binding that class devirtualizes it; allowed at
// source level (the binary audit counts the sites that survive).
// Expect no violations.
#define SDBP_HOT_PATH

struct Policy
{
    virtual ~Policy() = default;
    virtual unsigned victim(unsigned set) = 0;
};

struct LruPolicy final : Policy
{
    unsigned
    victim(unsigned set) override
    {
        return set & 1u;
    }
};

struct Cache
{
    Policy *policy;

    SDBP_HOT_PATH unsigned
    evict(unsigned set)
    {
        return policy->victim(set);
    }
};
